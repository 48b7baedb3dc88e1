"""Shared helpers: random instance factories and independent oracles.

The oracles here are deliberately naive (BFS, exhaustive search, explicit
matrix algebra) so they stay independent of the library code they check.
The references at the end are definitions the library itself does not
need: plain Gauss-Jordan synthesis, a gadget's cost, a parity region's
absorption effect, the unitaries of gadgets, parity maps and region
lists, and the `exchange`-based peephole walk `simplify` replaced.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import numpy as np

import zxpoly as zx
from zxpoly import sim


def star(q: int) -> zx.Architecture:
    return zx.Architecture(q, [(0, v) for v in range(1, q)], name=f"star:{q}")


# one connected coupling graph of each family on any q >= 2 qubits
ARCH_FAMILIES = {
    "line": zx.line,
    "circle": zx.circle,
    "complete": zx.complete,
    "grid": lambda q: zx.grid(2, q // 2) if q % 2 == 0 else zx.grid(1, q),
    "star": star,
}

# every topology of 3 and 4 qubits whose GL(q, 2) the "exact" table searches
EXACT_ARCHS = [zx.line(3), zx.circle(3), zx.complete(3), zx.line(4), zx.circle(4),
               zx.complete(4), zx.grid(2, 2), star(4)]


def dead_relay_graph() -> zx.Architecture:
    """13 vertices where the Prim paths of the terminals {0, 9, 12}, 0->9
    and 9->12, close the cycle 4-5-8-9-7-6-4, and the BFS prune from 0
    keeps the relay branch 4-6-7, whose leaf 7 is no terminal."""
    return zx.Architecture(13, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 8), (8, 9),
                                (4, 6), (6, 7), (7, 9), (4, 10), (10, 11), (11, 12)])


def random_gadget(rng: random.Random, q: int, max_legs: int | None = None) -> zx.PhaseGadget:
    basis = "Z" if rng.random() < 0.5 else "X"
    count = rng.randint(1, max_legs or q)
    legs = rng.sample(range(q), count)
    return zx.PhaseGadget(basis, sum(1 << l for l in legs), zx.Phase(rng.randint(1, 7), 4))


def random_zx_poly(rng: random.Random, q: int, n: int, max_legs: int | None = None) -> zx.ZXPolynomial:
    return zx.ZXPolynomial(q, tuple(random_gadget(rng, q, max_legs) for _ in range(n)))


def random_invertible_map(rng: random.Random, q: int, max_len: int | None = None) -> zx.ParityMap:
    if q < 2:
        return zx.identity_map(q)
    cnots = [zx.Cnot(*rng.sample(range(q), 2)) for _ in range(rng.randint(0, max_len or 3 * q))]
    return zx.from_cnots(q, cnots)


def bfs_distances(num_qubits: int, edges, source: int) -> list[int]:
    """Plain BFS hop counts, the distance oracle."""
    adj = {v: [] for v in range(num_qubits)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * num_qubits
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# The dict-based rooting the mask BFS `zxpoly.arch.rooted_tree` replaced,
# kept as its reference.
def rooted_tree(edges, root: int) -> tuple[dict[int, int], list[int]]:
    """Root an undirected tree edge set; return (parent map, BFS vertex order).

    Children are visited in ascending index order; the root maps to itself.
    Given edges with cycles, the parent map is their BFS spanning tree.
    """
    nbrs: dict[int, list[int]] = {root: []}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    for ns in nbrs.values():
        ns.sort()
    parent = {root: root}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
                queue.append(v)
    return parent, order


def exact_steiner_weight(arch: zx.Architecture, terminals: set[int]) -> int:
    """Exhaustive Steiner oracle: the cheapest connected vertex superset.

    Any connected subgraph on a vertex set S has a spanning tree of |S|-1
    edges, so the optimum is min |S| - 1 over connected S containing the
    terminals. Only usable for small graphs.
    """
    best = None
    others = [v for v in range(arch.num_qubits) if v not in terminals]
    for extra in range(len(others) + 1):
        if best is not None:
            break
        for added in combinations(others, extra):
            vertices = terminals | set(added)
            sub_edges = [(u, v) for (u, v) in arch.edges if u in vertices and v in vertices]
            start = next(iter(vertices))
            dist = bfs_distances(arch.num_qubits, sub_edges, start)
            if all(dist[v] >= 0 for v in vertices):
                best = len(vertices) - 1
                break
    assert best is not None
    return best


def exact_cnot_counts(num_qubits: int, edges) -> dict[tuple[int, ...], int]:
    """Exhaustive CNOT-count oracle: BFS over GL(q, 2) from the identity.

    A map is a tuple of row bitmasks (bit j of row i: output parity i holds
    input x_j); appending CNOT(c, t) adds row c onto row t. Each coupling
    edge gives two generators, one per direction. The BFS depth of a map is
    the fewest edge CNOTs that replay to it, so the result holds every
    invertible map with its optimal count. Only usable for q <= 4
    (|GL(4, 2)| = 20160).
    """
    gates = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    start = tuple(1 << i for i in range(num_qubits))
    counts = {start: 0}
    queue = deque([start])
    while queue:
        rows = queue.popleft()
        for c, t in gates:
            nxt = list(rows)
            nxt[t] ^= rows[c]
            nxt = tuple(nxt)
            if nxt not in counts:
                counts[nxt] = counts[rows] + 1
                queue.append(nxt)
    return counts


def row_column_bound(m: zx.ParityMap) -> int:
    """The architecture-blind CNOT lower bound: the larger of the map's
    non-unit rows and non-unit columns (a gate changes one of each)."""
    q = m.size
    columns = [sum((m.rows[j] >> i & 1) << j for j in range(q)) for i in range(q)]
    return max(sum(row != 1 << i for i, row in enumerate(vectors))
               for vectors in (m.rows, columns))


def gf2_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % 2 for j in range(n)]
        for i in range(n)
    ]


def random_connected_graph(rng: random.Random, q: int) -> list[tuple[int, int]]:
    """Random spanning tree plus random extra edges."""
    nodes = list(range(q))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, q):
        edges.add(tuple(sorted((nodes[i], nodes[rng.randrange(i)]))))
    for u in range(q):
        for v in range(u + 1, q):
            if rng.random() < 0.2:
                edges.add((u, v))
    return sorted(edges)


def map_from_lists(rows: list[list[int]]) -> zx.ParityMap:
    """Parity map of a 0/1 matrix, row i bit j at rows[i][j]."""
    return zx.ParityMap(len(rows), [sum(bit << j for j, bit in enumerate(row)) for row in rows])


def map_to_lists(m: zx.ParityMap) -> list[list[int]]:
    return [[m.rows[i] >> j & 1 for j in range(m.size)] for i in range(m.size)]


def gauss_cnots(m: zx.ParityMap) -> list[zx.Cnot]:
    """Architecture-unaware Gauss-Jordan resynthesis over GF(2).

    Uses row additions only (no permutations); the pivot fix picks the
    smallest row below the diagonal carrying a 1. Raises ValueError on a
    singular map.
    """
    q = m.size
    rows = list(m.rows)
    ops: list[tuple[int, int]] = []  # (src, dst): rows[dst] ^= rows[src]
    for col in range(q):
        bit = 1 << col
        if not rows[col] & bit:
            pivot = next((r for r in range(col + 1, q) if rows[r] & bit), None)
            if pivot is None:
                raise ValueError("parity map is singular")
            rows[col] ^= rows[pivot]
            ops.append((pivot, col))
        for r in range(q):
            if r != col and rows[r] & bit:
                rows[r] ^= rows[col]
                ops.append((col, r))
    return [zx.Cnot(src, dst) for src, dst in reversed(ops)]


def gf2_invert(m: zx.ParityMap) -> zx.ParityMap:
    """Inverse over GF(2): gauss_cnots replayed backward, as CNOTs are self-inverse."""
    return zx.from_cnots(m.size, reversed(gauss_cnots(m)))


def gadget_cost(gadget: zx.PhaseGadget, arch: zx.Architecture) -> int:
    """The CNOTs the cost model prices a gadget at: twice its tree weight."""
    return 2 * arch.tree_weight(gadget.legs)


def effect_parity(m: zx.ParityMap, cnot: zx.Cnot, side: str, arch: zx.Architecture) -> int:
    """CNOTs saved on a parity region by absorbing the propagated CNOT.

    The left region absorbs by append, the right by prepend, matching the
    conjugation direction of the polynomial propagation. Positive means the
    region synthesizes cheaper afterwards.

    Absorbing the CNOT changes the optimal cost of the region by at most its
    routed cost r: 1 on a coupling edge, 4(d-1) at hop distance d >= 2 (so
    d itself is no bound). The greedy cnot_cost can go past r by as much as
    its synthesis of m is longer than the optimum.
    """
    if side == "left":
        absorbed = zx.append_cnot(m, cnot)
    elif side == "right":
        absorbed = zx.prepend_cnot(m, cnot)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return zx.cnot_cost(m, arch) - zx.cnot_cost(absorbed, arch)


def gadget_unitary(gadget: zx.PhaseGadget, num_qubits: int) -> np.ndarray:
    """Unitary of one gadget: the one-gadget polynomial's."""
    return sim.poly_unitary(zx.ZXPolynomial(num_qubits, (gadget,)))


def parity_unitary(m: zx.ParityMap) -> np.ndarray:
    """Permutation unitary sending basis state x to M x over GF(2)."""
    dim = 1 << m.size
    mat = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        y = 0
        for i, row in enumerate(m.rows):
            y |= ((row & x).bit_count() & 1) << i
        mat[y, x] = 1.0
    return mat


def regions_unitary(regions: list) -> np.ndarray:
    """Unitary of an alternating parity-map/gadget-run list, temporal order."""
    def size(region) -> int:
        if isinstance(region, zx.ParityMap):
            return region.size
        if isinstance(region, zx.ZXPolynomial):
            return region.num_qubits
        raise TypeError(f"unknown region {region!r}")

    if not regions:
        raise ValueError("empty region list")
    q = size(regions[0])
    mat = np.eye(1 << q, dtype=complex)
    for region in regions:
        is_map = isinstance(region, zx.ParityMap)
        if size(region) != q:
            kind = "parity map" if is_map else "gadget run"
            raise ValueError(f"{kind} has {size(region)} qubits, the list {q}")
        mat = (parity_unitary(region) if is_map else sim.poly_unitary(region)) @ mat
    return mat


# The walk `zxpoly.simplify` replaced, which builds each passed neighbour's
# `exchange`d form as it goes, kept as its reference.
def _attempt_merge_left(gadgets: list[zx.PhaseGadget], start: int) -> bool:
    """Walk gadgets[start] leftward to its nearest merge partner.

    On success the list is rewritten in place (partner merged, or dropped at
    phase zero; passed neighbours in their `exchange`d forms) and True is
    returned. On failure the list is untouched.
    """
    mover = gadgets[start]
    passed: list[zx.PhaseGadget] = []
    for j in range(start - 1, -1, -1):
        left = gadgets[j]
        merged = zx.try_merge(left, mover)
        if merged is not None:
            replacement = [] if merged.phase.is_zero() else [merged]
            gadgets[j:start + 1] = replacement + passed[::-1]
            return True
        swapped = zx.exchange(left, mover)
        if swapped is None:
            return False
        mover, left = swapped
        passed.append(left)
    return False


def reference_simplify(poly: zx.ZXPolynomial) -> zx.ZXPolynomial:
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
    return zx.ZXPolynomial(poly.num_qubits, tuple(gadgets))
