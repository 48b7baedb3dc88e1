"""Shared helpers: random instance factories and independent oracles.

The oracles here are deliberately naive (BFS, exhaustive search, explicit
matrix algebra) so they stay independent of the library code they check.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import zxpoly as zx


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
