"""Invertible GF(2) parity maps and CNOT resynthesis.

A parity map records the linear action of a CNOT subcircuit: rows[i] is an
int bitmask and bit j of rows[i] says the output parity of wire i includes
input x_j. Appending a CNOT (gate after the map) adds the control row onto
the target row; prepending (gate before the map) adds the target column
onto the control column.

`steiner_gauss` resynthesizes a map with every emitted CNOT on an
architecture edge. It satisfies the replay contract: applying the returned
gates in order to the identity map reproduces the input bit-for-bit. Up to
EXACT_QUBITS qubits it is exact: GL(q, 2) has at most 20,160 maps there
(9,999,360 at q = 5), so one BFS over them from the identity, vectorized
over each level's frontier and run the first time such a map is asked for,
leaves one byte per map, 1 + its depth, in the Architecture's "exact"
table. There `cnot_cost` is the map's depth byte, read through
`_exact_entry` like the walk-back, which steps from the map to the identity
by undoing, at each step, the first move that reaches a map one level
shallower. Larger maps get a greedy that organizes each pivot column's
elimination along a Steiner tree, and gets a map's inverse by replaying its
own direct synthesis backwards.

`flank_pricer` is where the gauss sweep's pricing decides by size. It
takes a candidate's two flanks once and prices each CNOT absorbed into
them. Up to EXACT_QUBITS it reads the packed indices: the append move (the
control row onto the target row) of the BFS and the walk-back for the left
flank, and the prepend move (the target column onto the control column)
for the right. Above, it answers with `cnot_lower_bound` when that already
spends the sweep's budget, and synthesizes the two maps otherwise.

`_sequence` is the one sequence read of `steiner_gauss` at every size, and
of `cnot_cost` above EXACT_QUBITS: it checks the map fits and gives its
entry in the Architecture's "sequence" table (bounded by `memo_put`), the
identity's () included, a tuple of (control, target) pairs. On a miss it
walks a q <= 4 map back through the "exact" table, or synthesizes a larger
one, and stores the result, so a larger map costed and lowered later is
synthesized once, and a q <= 4 map is walked back only when it is lowered.
The greedy runs while a remaining vertex is structured (its row or column
is not a unit vector), so the identity takes no round. Each round is
decided once per elimination state and kept in the "round" table as
(pivot, row additions); fresh and stored rounds are applied by one replay.
The greedy, like every stored sequence, works on (control, target) int
pairs; `Cnot` objects are built only for the list `steiner_gauss` returns. Each row step gathers its
sources onto the pivot with `Architecture.gather`, the tree walk the
gadget ladders use too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterable

import numpy as np

from .arch import Architecture, memo_put
from .poly import mask_to_legs
from .rules import Cnot

EXACT_QUBITS = 4  # the largest q whose GL(q, 2) is searched whole


@dataclass(frozen=True)
class ParityMap:
    size: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("parity map size must be positive")
        if type(self.rows) is not tuple:
            object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.size:
            raise ValueError("row count must equal size")
        full = (1 << self.size) - 1
        if any(row & ~full for row in self.rows):
            raise ValueError("row has bits outside the map size")

    def is_identity(self) -> bool:
        return all(row == 1 << i for i, row in enumerate(self.rows))

    def __str__(self) -> str:
        return "\n".join(
            " ".join(str(self.rows[i] >> j & 1) for j in range(self.size))
            for i in range(self.size)
        )


def identity_map(num_qubits: int) -> ParityMap:
    return ParityMap(num_qubits, tuple(1 << i for i in range(num_qubits)))


def append_cnot(m: ParityMap, cnot: Cnot) -> ParityMap:
    """Map followed by the gate: target row gains the control row."""
    rows = list(m.rows)
    try:  # Cnot wires are non-negative, so only a wire past the map misses
        rows[cnot.target] ^= rows[cnot.control]
    except IndexError:
        raise ValueError(f"{cnot} out of range for {m.size} qubits") from None
    return ParityMap(m.size, tuple(rows))


def prepend_cnot(m: ParityMap, cnot: Cnot) -> ParityMap:
    """Gate followed by the map: control column gains the target column."""
    tbit = 1 << cnot.target
    cbit = 1 << cnot.control
    if (tbit | cbit) >> m.size:
        raise ValueError(f"{cnot} out of range for {m.size} qubits")
    rows = tuple(row ^ cbit if row & tbit else row for row in m.rows)
    return ParityMap(m.size, rows)


def from_cnots(num_qubits: int, cnots: Iterable[Cnot]) -> ParityMap:
    """Replay a CNOT sequence from the identity map, appending each gate."""
    rows = [1 << i for i in range(num_qubits)]
    for cnot in cnots:
        try:  # as in append_cnot
            rows[cnot.target] ^= rows[cnot.control]
        except IndexError:
            raise ValueError(f"{cnot} out of range for {num_qubits} qubits") from None
    return ParityMap(num_qubits, tuple(rows))


def _column_step(
    rows: list[int], pivot: int, allowed: int, arch: Architecture
) -> list[tuple[int, int]]:
    """Make column `pivot` a unit column using tree-edge row additions.

    Builds a Steiner tree over the rows carrying the pivot bit plus the
    pivot row, fills ones downward so every tree row carries the bit, then
    eliminates upward so only the pivot row keeps it. All ops stay inside
    the `allowed` vertex mask.
    """
    bit = 1 << pivot
    carriers = sum(1 << r for r in mask_to_legs(allowed) if rows[r] & bit)
    if not carriers:
        raise ValueError("parity map is singular")
    if carriers == bit:
        return []
    ops: list[tuple[int, int]] = []
    parent, bfs_order = arch.rooted_terminal_tree(carriers | bit, pivot, allowed)
    if not rows[pivot] & bit:
        # Pull a 1 up to the pivot along the path from the nearest carrier;
        # every vertex strictly between them lacks the bit, so each hop sets it.
        nearest = next(v for v in bfs_order if carriers >> v & 1)
        path = [nearest]
        while path[-1] != pivot:
            path.append(parent[path[-1]])
        for child, par in zip(path, path[1:]):
            rows[par] ^= rows[child]
            ops.append((child, par))
    for v in bfs_order[1:]:  # fill: every tree row carries the pivot bit
        if not rows[v] & bit:
            rows[v] ^= rows[parent[v]]
            ops.append((parent[v], v))
    for v in reversed(bfs_order[1:]):  # eliminate: only the pivot row keeps it
        rows[v] ^= rows[parent[v]]
        ops.append((parent[v], v))
    return ops


def _solve_row_combination(
    rows: list[int], candidates: list[int], target: int
) -> list[int]:
    """Subset of candidate rows XOR-summing to target (unique by invertibility).

    XOR basis keyed by lowest set bit: inserting reduces a vector by
    existing pivots until it lands on a fresh one, and the target is
    expressed by greedy reduction, which strictly raises its lowest bit.
    """
    pivots: dict[int, tuple[int, int]] = {}  # lowest bit -> (vector, combo mask)
    for idx, r in enumerate(candidates):
        vec, combo = rows[r], 1 << idx
        while vec:
            hit = pivots.get(vec & -vec)
            if hit is None:
                pivots[vec & -vec] = (vec, combo)
                break
            vec ^= hit[0]
            combo ^= hit[1]
    rest, combo = target, 0
    while rest:
        hit = pivots.get(rest & -rest)
        if hit is None:
            raise ValueError("parity map is singular")
        rest ^= hit[0]
        combo ^= hit[1]
    return [candidates[i] for i in range(len(candidates)) if combo >> i & 1]


def _row_step(
    rows: list[int],
    pivot: int,
    sources: list[int],
    arch: Architecture,
) -> list[tuple[int, int]]:
    """Add the XOR of the source rows onto the pivot row; restore the rest.

    `arch.gather` brings the sources' XOR onto the pivot along a Steiner
    tree rooted there; replaying its non-pivot ops in reverse afterwards
    restores every other row (the pivot row is never a source, so the
    rewind is exact). Because everything but the pivot row is restored,
    the tree may route through any vertex of the graph.
    """
    ops = arch.gather(sum(1 << v for v in sources) | 1 << pivot, pivot)
    for src in sources:
        rows[pivot] ^= rows[src]
    return [*ops, *((src, dst) for src, dst in reversed(ops) if dst != pivot)]


def _cnots_commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    # CNOTs, as (control, target) pairs, commute unless one's control is
    # the other's target.
    return a[0] != b[1] and a[1] != b[0]


def _cancel_cnots(seq: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop self-cancelling (control, target) pairs, looking through
    commuting gates.

    Product-preserving: a gate only meets its twin after commuting past
    everything in between, and CNOTs are self-inverse.
    """
    gates = list(seq)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            twin = None
            for j in range(i + 1, len(gates)):
                if gates[j] == gates[i]:
                    twin = j
                    break
                if not _cnots_commute(gates[i], gates[j]):
                    break
            if twin is None:
                i += 1
            else:
                del gates[twin]
                del gates[i]
                changed = True
    return gates


def _eliminate_vertex(
    rows: list[int], pivot: int, allowed: int, arch: Architecture
) -> list[tuple[int, int]]:
    """Purify the pivot's column and row; afterwards both equal the unit vector.

    The column step must stay inside the unfinished vertex set (its relay
    rows end up scrambled), but the row step restores every non-pivot row
    exactly, so its trees may route through finished vertices.
    """
    ops = _column_step(rows, pivot, allowed, arch)
    residue = rows[pivot] ^ (1 << pivot)
    if residue:
        candidates = mask_to_legs(allowed & ~(1 << pivot))
        sources = _solve_row_combination(rows, candidates, residue)
        ops.extend(_row_step(rows, pivot, sources, arch))
    return ops


def _synthesize_raw(m: ParityMap, arch: Architecture) -> list[tuple[int, int]]:
    """Single greedy vertex-elimination synthesis of the map, as
    (control, target) pairs.

    Each round eliminates the cheapest vertex among those whose removal
    keeps the remaining graph connected; ties prefer the vertex that least
    stretches the distances between vertices still carrying matrix
    structure, then the smallest index. It stops when no remaining vertex
    is structured, i.e. every row is its unit vector (the identity takes no
    round); on a singular map a column or row step raises first.

    A round's choice depends only on its state, the `remaining` mask and
    the rows: eliminated rows and columns are unit vectors and every
    remaining row has bits only in remaining columns. So each round is
    decided once, memoized in the Architecture's "round" table under one
    int packing both, as (pivot, row additions) of the winning trial; fresh
    or stored, replaying the additions reproduces the trial's rows exactly.
    """
    q = m.size
    memo = arch.memos["round"]
    rows = list(m.rows)
    ops: list[tuple[int, int]] = []
    remaining = (1 << q) - 1
    while structured := _structured(remaining, rows):
        key = remaining
        for row in rows:
            key = key << q | row
        decided = memo.get(key)
        if decided is None:
            decided = memo_put(memo, key, _decide_round(rows, remaining, structured, arch))
        pivot, additions = decided
        for src, dst in additions:
            rows[dst] ^= rows[src]
        ops += additions
        remaining &= ~(1 << pivot)
    return _cancel_cnots(ops[::-1])


def _decide_round(
    rows: list[int], remaining: int, structured: int, arch: Architecture
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """One greedy round (`structured` is nonzero); returns (pivot, row additions).

    A non-cut pivot is free when it is not structured: its row and column
    are unit vectors among the remaining rows. Exactly the free pivots have
    empty trials (no column ops, no residue), so if one exists they are the
    tied set, with no trial elimination; otherwise every non-cut pivot runs one."""
    non_cut = arch.non_cut_vertices(remaining)
    if non_cut & ~structured:
        tied = [(pivot, ()) for pivot in mask_to_legs(non_cut & ~structured)]
    else:
        trials = [(pivot, _eliminate_vertex(rows[:], pivot, remaining, arch))
                  for pivot in mask_to_legs(non_cut)]
        cheapest = min(len(trial_ops) for _, trial_ops in trials)
        tied = [trial for trial in trials if len(trial[1]) == cheapest]
    if len(tied) > 1:  # the penalty is only a tie-break; skip it otherwise
        tied = [min(tied, key=lambda trial: (
            _stretch_penalty(arch, remaining, trial[0], structured), trial[0]))]
    pivot, additions = tied[0]
    return pivot, tuple(additions)


def _structured(remaining: int, rows: list[int]) -> int:
    """Mask of the remaining vertices still carrying matrix structure: an
    off-diagonal bit in their row, or in their column among the remaining rows."""
    structured = 0
    for u in mask_to_legs(remaining):
        structured |= rows[u] & ~(1 << u) | (rows[u] != 1 << u) << u
    return structured


def _stretch_penalty(
    arch: Architecture, remaining: int, pivot: int, structured: int
) -> int:
    """Total growth of pairwise distances between the structured vertices
    (other than the pivot) if the pivot left the remaining subgraph."""
    involved = mask_to_legs(structured & ~(1 << pivot))
    if len(involved) < 2:
        return 0
    before = arch.distances_within(remaining)
    after = arch.distances_within(remaining & ~(1 << pivot))
    penalty = 0
    for i, u in enumerate(involved):
        for w in involved[i + 1:]:
            penalty += after[u][w] - before[u][w]
    return penalty


def _gf2_transpose(m: ParityMap) -> ParityMap:
    q = m.size
    return ParityMap(
        q, tuple(sum((m.rows[j] >> i & 1) << j for j in range(q)) for i in range(q))
    )


def steiner_gauss(m: ParityMap, arch: Architecture) -> list[Cnot]:
    """Architecture-aware resynthesis: every returned CNOT is a coupling edge.

    Up to EXACT_QUBITS qubits the result is the map's shortest sequence,
    walked back through the Architecture's "exact" table.

    From 5 qubits on, the core pass eliminates one vertex at a time: the
    pivot's column is purified along a Steiner tree (fill ones downward so
    every tree row carries the pivot bit, then eliminate upward so only the
    pivot row keeps it), then the pivot's row (the unique subset of
    remaining rows summing to the residue is gathered in along a second
    tree). Finished vertices are never touched again, so replaying the
    returned gates from the identity reproduces the map bit-for-bit. Pivots
    are chosen greedily: among vertices whose removal keeps the remaining
    coupling graph connected, the cheapest elimination wins, with ties
    preferring the vertex that least stretches distances between vertices
    still carrying matrix structure, then the smallest index; it stops once
    no remaining vertex carries structure, so the identity takes no round.

    The pass runs on the map, its inverse, its transpose, and its
    inverse-transpose, whose gate lists convert into one another by
    reversal and/or control-target exchange; the shortest synthesis wins.

    It is the `Cnot` view of `_sequence`: every result, the identity's []
    too, is stored per Architecture as (control, target) pairs, so a map is
    walked back or synthesized once however often it is lowered (or, from
    5 qubits on, costed); each call returns a fresh list.
    """
    return list(starmap(Cnot, _sequence(m, arch)))


def _sequence(m: ParityMap, arch: Architecture) -> tuple[tuple[int, int], ...]:
    """The map's entry in the Architecture's "sequence" table, its CNOTs as
    (control, target) pairs (the identity's is ()); on a miss it is computed,
    walked back through the "exact" table for q <= EXACT_QUBITS and otherwise
    synthesized by `_shortest_variant`, and stored. Raises ValueError when
    the map does not fit the architecture or is singular."""
    _check_size(m, arch)
    memo = arch.memos["sequence"]
    pairs = memo.get(m.rows)
    if pairs is None:
        pairs = memo_put(memo, m.rows, _walk_back(m, arch) if m.size <= EXACT_QUBITS
                         else _shortest_variant(m, arch))
    return pairs


def _check_size(m: ParityMap, arch: Architecture) -> None:
    if m.size != arch.num_qubits:
        raise ValueError(f"map size {m.size} does not match architecture {arch.name}")


def _moves(arch: Architecture) -> list[tuple[int, int]]:
    """The coupling-edge CNOTs in their fixed order: the sorted edges, each
    as (u, v) then (v, u)."""
    return [(c, t) for u, v in sorted(arch.edges) for c, t in ((u, v), (v, u))]


def _exact_table(arch: Architecture) -> bytearray:
    """BFS from the identity over GL(q, 2), q <= EXACT_QUBITS, appending
    coupling-edge CNOTs. Byte i is 1 + the depth of the map at index i, its
    fewest such CNOTs, or 0 for a singular map. Each level applies one move
    at a time to the whole frontier and marks the unreached maps it hits;
    the next frontier is every map at the new depth."""
    q = arch.num_qubits
    full = (1 << q) - 1
    table = bytearray(1 << q * q)
    depths = np.frombuffer(table, dtype=np.uint8)
    frontier = np.array([sum(1 << (q + 1) * i for i in range(q))])  # the identity
    depth = depths[frontier] = 1
    while frontier.size:
        depth += 1
        for c, t in _moves(arch):
            nxt = frontier ^ (frontier >> q * c & full) << q * t
            depths[nxt[depths[nxt] == 0]] = depth
        frontier = np.flatnonzero(depths == depth)
    return table


def _exact_entry(m: ParityMap, arch: Architecture) -> tuple[bytearray, int]:
    """The Architecture's "exact" table, built on first use, and the map's
    index in it, sum(rows[i] << q * i). Raises ValueError when the map does
    not fit the architecture or is singular."""
    _check_size(m, arch)
    table = arch.memos["exact"]
    if not table:
        table = arch.memos["exact"] = _exact_table(arch)
    q = m.size
    index = 0
    for row in reversed(m.rows):
        index = index << q | row
    if not table[index]:
        raise ValueError("parity map is singular")
    return table, index


def flank_pricer(
    pl: ParityMap, pr: ParityMap, arch: Architecture
) -> tuple[int, Callable[[int, int, int], int]]:
    """What a gauss flank pair (pl, pr) costs now, the ceiling
    cnot_cost(pl) + cnot_cost(pr), and a pricer for its candidates: with C
    the CNOT (c, t) and absorbed = cnot_cost(append_cnot(pl, C)) +
    cnot_cost(prepend_cnot(pr, C)), price(c, t, budget) is absorbed or a
    value >= budget that is at most absorbed, so min(price, budget) ==
    min(absorbed, budget). Raises ValueError, as `cnot_cost` does, when a
    flank does not fit the architecture or is singular.

    Up to EXACT_QUBITS qubits each flank is checked and packed once, by
    `_exact_entry`, and a candidate's two maps are one move each on the
    packed index, read from the "exact" table with no map built, whatever
    the budget: appending adds the control row onto the target row, as in
    `_walk_back`, and prepending adds the target column onto the control
    column, bit t of every row moved to bit c. Above, the pricer builds both
    maps and returns the sum of their `cnot_lower_bound`s when it reaches
    the budget, so only a candidate that may fit it is costed."""
    if arch.num_qubits > EXACT_QUBITS:
        def price(c: int, t: int, budget: int) -> int:
            cnot = Cnot(c, t)
            left, right = append_cnot(pl, cnot), prepend_cnot(pr, cnot)
            bound = cnot_lower_bound(left, arch) + cnot_lower_bound(right, arch)
            return bound if bound >= budget else cnot_cost(left, arch) + cnot_cost(right, arch)

        return cnot_cost(pl, arch) + cnot_cost(pr, arch), price
    table, left = _exact_entry(pl, arch)
    _, right = _exact_entry(pr, arch)
    q = arch.num_qubits
    full = (1 << q) - 1
    ones = sum(1 << q * i for i in range(q))  # bit 0 of every row

    def price(c: int, t: int, budget: int) -> int:
        return (table[left ^ (left >> q * c & full) << q * t]
                + table[right ^ (right >> t & ones) << c] - 2)

    return table[left] + table[right] - 2, price


def _walk_back(m: ParityMap, arch: Architecture) -> tuple[tuple[int, int], ...]:
    """The map's shortest sequence from the "exact" table: from the map's
    index, undo the first move (in `_moves` order; a CNOT is its own inverse)
    that reaches a map one level shallower, until the identity. Raises
    ValueError when the map is singular."""
    table, index = _exact_entry(m, arch)
    q = m.size
    full = (1 << q) - 1
    moves = _moves(arch)
    pairs: list[tuple[int, int]] = []
    while (depth := table[index]) > 1:
        for c, t in moves:
            prev = index ^ (index >> q * c & full) << q * t
            if table[prev] == depth - 1:
                break
        index = prev
        pairs.append((c, t))
    return tuple(reversed(pairs))


def _shortest_variant(m: ParityMap, arch: Architecture) -> tuple[tuple[int, int], ...]:
    """The shortest of the four variants' syntheses (the first on a tie),
    converted back to a sequence for the map; the inverse is the direct
    synthesis replayed backwards (CNOTs self-invert)."""
    direct = _synthesize_raw(m, arch)
    inverse = from_cnots(m.size, (Cnot(c, t) for c, t in reversed(direct)))
    return tuple(min(
        direct,
        _synthesize_raw(inverse, arch)[::-1],
        [(t, c) for c, t in reversed(_synthesize_raw(_gf2_transpose(m), arch))],
        [(t, c) for c, t in _synthesize_raw(_gf2_transpose(inverse), arch)],
        key=len,
    ))


def cnot_lower_bound(m: ParityMap, arch: Architecture) -> int:
    """Fewest CNOTs any sequence of coupling-edge gates for the map can have:
    max(r, c, 2D - min(r, c)), where r and c count the rows and columns that
    are not unit vectors and D is the largest `arch.dist[i][j]` over the
    off-diagonal bits (i, j), the farthest hop from a wire to an input its
    parity holds (0 for the identity). Raises ValueError when the map does
    not fit the architecture.

    Appending a CNOT changes one row and prepending one changes one column,
    so a sequence of k gates leaves at least q - k of each untouched. Column
    j is a unit column when row j has bit j and no other row does.

    The relay term: x_j reaches row i only along coupling edges, through a
    time-ordered chain of gates, and every hop targets a wire; the chain
    passes a wire at each hop distance 1, ..., D - 1 from j, so at least
    D - 1 relays, none of them i, are targeted.
    A wire targeted exactly once ends as its own unit plus the control's
    row, which is never zero, so it cannot end as a unit row. Of those
    relays at most r - 1 end non-unit (row i is non-unit and not a relay);
    every non-unit row is targeted at least once and every unit relay at
    least twice, so the sequence has at least r + 2 * max(0, D - r) gates.
    A sequence for the transpose is the same gates reversed with control
    and target exchanged, on the same distances, which gives the same with c.
    """
    _check_size(m, arch)
    rows = off_diagonal = diagonal = reach = 0
    bit = 1  # the diagonal bit of the current row
    for dist, row in zip(arch.dist, m.rows):
        if row != bit:
            rows += 1
            off = row & ~bit
            off_diagonal |= off
            while off:
                low = off & -off
                hops = dist[low.bit_length() - 1]
                if hops > reach:
                    reach = hops
                off ^= low
        diagonal |= row & bit
        bit <<= 1
    columns = (off_diagonal | (bit - 1) & ~diagonal).bit_count()
    return max(rows, columns, 2 * reach - min(rows, columns))


def cnot_cost(m: ParityMap, arch: Architecture) -> int:
    """Number of CNOTs steiner_gauss emits for the map. Up to EXACT_QUBITS
    qubits it is the optimum, the map's depth, its one byte in the "exact"
    table less 1, so costing walks no sequence back and stores none; above,
    it is the length of its `_sequence`. Raises ValueError when the map does
    not fit the architecture or is singular."""
    if m.size > EXACT_QUBITS:
        return len(_sequence(m, arch))
    table, index = _exact_entry(m, arch)
    return table[index] - 1
