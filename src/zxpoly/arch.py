"""Hardware coupling graphs: distances, topologies, and Steiner trees.

An Architecture is an undirected connected graph over qubit indices
0..num_qubits-1, with `dist` its all-pairs hop-count table. Its graph is
immutable after construction. It is the one owner of every memo of the
package, the named tables of its `memos` dict, each filled lazily on first
use (without a lock). A vertex set (a region) is an int mask, bit v for
vertex v; -1 means "anywhere" and is normalized to the full mask
(1 << num_qubits) - 1.
With n = num_qubits, the nine tables and their keys are:

  * "span": the vertex mask of `shortest_path(u, v)` over the whole graph,
    by u * n + v (u < v); `tree_weight` reads these, only for three or
    more terminals and only on a "weight" miss,
  * "weight": `tree_weight` by leg mask, for three or more terminals (one
    or two weigh their distance, with no table),
  * "non_cut": `non_cut_vertices` by vertex mask: the vertices whose
    removal keeps the rest connected,
  * "distances": `distances_within` by vertex mask: BFS hop tables inside it;
    the full mask's entry, built first, is `dist`,
  * "exact": for n <= 4, `parity._exact_table`, one byte per map packed
    into n * n bits, 1 + its depth (0: singular), built whole on first use
    (empty until then) and read through `parity._exact_entry`: by
    `cnot_cost` for a map's depth, by `parity.flank_pricer`, the gauss
    sweep's pricer, for the depths of a flank pair's absorbing moves, and
    on a "sequence" miss to walk a map back, each step undoing the first
    move that lowers the depth by one,
  * "sequence": `parity.steiner_gauss` results as (control, target) pairs by
    the map's rows tuple, the identity's () too, at every n, used only in
    `parity._sequence` (for n <= 4, only when a map is lowered),
  * "round": the Steiner-Gauss greedy's decided rounds, each a (pivot, row
    additions) pair, by elimination state, the remaining mask and the rows
    packed into one int; empty for n <= 4,
  * "gather": `gather` op tuples by terms * n + root; a miss builds and
    roots its own whole-graph tree and keeps only the ops,
  * "zx": `synth._zx_table`'s (control, target, delta) triples of one
    gadget, flattened, by legs << 1 | (basis == "X").

Every table but "exact" is filled through `memo_put`, which holds at most
MEMO_CAP entries and evicts the oldest first.

`gather` is the one tree walk that XORs a set of terminal wires onto a root
along a rooted terminal tree; the Steiner-Gauss row step and the gadget
ladder are both built from it.

Determinism conventions used throughout:
  * among equal-length shortest paths the lexicographically smallest vertex
    sequence is chosen,
  * metric-closure edges are ordered by (distance, u, v), u < v, so the
    minimum spanning tree over them is unique,
  * tree traversals visit children in ascending index order.

Steiner trees are approximated by the minimum spanning tree of the terminal
set's metric closure (the classic 2-approximation), expanded back into
concrete shortest paths and pruned to a tree over physical vertices.

The tree layer works on per-vertex neighbour bitmasks (a list of n ints).
`terminal_tree` ORs the hops of each spanning-tree edge's `_walk`, the one
path walk (`shortest_path` lists it), into them, and `rooted_tree`, the one
rooting routine, a BFS visiting unvisited neighbours lowest bit first,
prunes that union; `gather` and the Steiner-Gauss column step root
`terminal_tree`'s edges with it.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Iterator

from .poly import ascii_number, json_int, legs_to_mask, mask_to_legs

TreeEdges = tuple[tuple[int, int], ...]

MEMO_CAP = 1 << 14  # entries per memo


def memo_put(memo: dict, key, value):
    """Store a memo entry and return the value; past MEMO_CAP entries the
    oldest (first in dict order) is evicted."""
    while len(memo) >= MEMO_CAP:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


class Architecture:
    """Undirected coupling graph with precomputed shortest-path distances."""

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]], name: str = ""):
        if num_qubits < 1:
            raise ValueError("architecture needs at least one qubit")
        normalized: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < num_qubits and 0 <= v < num_qubits):
                raise ValueError(f"edge ({u},{v}) out of range for {num_qubits} qubits")
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            normalized.add((min(u, v), max(u, v)))
        self.num_qubits = num_qubits
        self.edges = frozenset(normalized)
        self.name = name or f"graph:{num_qubits}"
        adj: list[list[int]] = [[] for _ in range(num_qubits)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(ns)) for ns in adj)
        self.memos: dict[str, dict | bytearray] = {
            name: {} for name in ("span", "weight", "non_cut", "distances", "sequence", "round",
                                  "gather", "zx")
        }
        self.memos["exact"] = bytearray()
        if -1 in self.bfs(0):  # one BFS refuses it before the n-row all-pairs table
            raise ValueError("architecture graph must be connected")
        self.dist = self.distances_within((1 << num_qubits) - 1)

    def bfs(self, source: int, allowed: int = -1) -> list[int]:
        """Hop counts from source (-1 if unreachable), moving only through
        the `allowed` vertex mask (-1: anywhere)."""
        dist = [-1] * self.num_qubits
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if dist[v] < 0 and allowed >> v & 1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def is_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def _region(self, allowed: int) -> int:
        """The vertex mask `allowed` names; -1 (anywhere) is the full mask."""
        return allowed & (1 << self.num_qubits) - 1

    def shortest_path(self, u: int, v: int, allowed: int = -1) -> list[int]:
        """Lexicographically smallest shortest path from u to v (inclusive),
        moving only through the `allowed` vertex mask (-1: anywhere)."""
        for w in (u, v):
            if not 0 <= w < self.num_qubits:
                raise ValueError(f"vertex {w} out of range")
        return [u, *self._walk(u, v, self.distances_within(self._region(allowed)))]

    def _walk(self, u: int, v: int, dists) -> Iterator[int]:
        """The vertices after u on the lexicographically smallest shortest
        path from u to v, with `dists` a `distances_within` table: each step
        moves to the lowest neighbour one hop nearer to v."""
        dist_to_v = dists[v]
        if dist_to_v is None or dist_to_v[u] < 0:
            raise ValueError(f"no path from {u} to {v}")
        adj = self.adj
        for d in range(dist_to_v[u] - 1, -1, -1):
            for u in adj[u]:  # ascending: the first one nearer is the lowest
                if dist_to_v[u] == d:
                    break
            yield u

    def terminal_tree(self, terminals: Iterable[int], allowed: int = -1) -> TreeEdges:
        """Approximate Steiner tree connecting the terminals inside the
        `allowed` vertex mask (-1: anywhere).

        Returns the tree's edges over physical vertices, sorted; its weight
        is their number. A single terminal yields the empty tree. Each call
        builds the tree: the `_walk` of each `_prim` edge ORs its hops into
        per-vertex neighbour masks, whose union may have cycles, and
        `rooted_tree` from the smallest terminal prunes it to its BFS tree.
        """
        terms = sorted(set(terminals))
        if not terms:
            raise ValueError("terminal set must be non-empty")
        region = self._region(allowed)
        for t in terms:
            if not 0 <= t < self.num_qubits:
                raise ValueError(f"terminal {t} out of range")
            if not region >> t & 1:
                raise ValueError(f"terminal {t} not in the allowed vertex set")
        dists = self.distances_within(region)
        nbrs = [0] * self.num_qubits
        for u, v in self._prim(terms, dists):
            for w in self._walk(u, v, dists):
                nbrs[u] |= 1 << w
                nbrs[w] |= 1 << u
                u = w
        parent, order = rooted_tree(nbrs, terms[0])
        edges = []
        for v in order[1:]:
            u = parent[v]
            edges.append((u, v) if u < v else (v, u))
        edges.sort()
        return tuple(edges)

    def tree_weight(self, legs: int) -> int:
        """Weight of the terminal tree over the wires set in the `legs`
        bitmask: `len(terminal_tree(mask_to_legs(legs)))`, without building
        the tree's edges.

        That tree is the union U of the shortest paths along the metric
        closure's Prim edges, pruned by a BFS from the smallest terminal.
        The Prim edges span the terminals and each path joins its edge's
        two ends, so U is connected, and the BFS tree of a connected graph
        has one edge per vertex but its root. So the weight is |V(U)| - 1, where V(U)
        is the terminals together with the vertices of those paths: the OR
        of `legs` and each edge's "span" mask.
        The popcount decides first. One or two terminals: the tree is the
        one shortest path, so the weight is their distance (no Prim, no
        "span" or "weight" read). Three or more: the "weight" table answers
        a mask weighed before; only a miss lists the terminals.
        """
        n = self.num_qubits
        if legs <= 0 or legs >> n:
            if legs < 0:
                raise ValueError(f"negative mask {legs}")
            if not legs:
                raise ValueError("terminal set must be non-empty")
            raise ValueError(f"terminal {legs.bit_length() - 1} out of range")
        if legs.bit_count() <= 2:
            return self.dist[(legs & -legs).bit_length() - 1][legs.bit_length() - 1]
        weight = self.memos["weight"].get(legs)
        if weight is not None:
            return weight
        spans = self.memos["span"]
        covered = legs
        for u, v in self._prim(mask_to_legs(legs), self.dist):
            span = spans.get(u * n + v)
            if span is None:
                span = memo_put(spans, u * n + v, legs_to_mask(self.shortest_path(u, v)))
            covered |= span
        return memo_put(self.memos["weight"], legs, covered.bit_count() - 1)

    def gather(self, terms: int, root: int) -> tuple[tuple[int, int], ...]:
        """Row additions (child, parent), each meaning rows[parent] ^=
        rows[child], that XOR the rows of the `terms` mask onto the `root`
        terminal along `terminal_tree`'s edges over the whole graph, rooted
        there by `rooted_tree`; a miss builds that tree and keeps only the ops.

        The ops come in post-order, children in ascending order. A relay (a
        tree vertex outside `terms`) is first added onto its parent once
        more, so its own row cancels; a subtree holding no terminal is
        skipped. Afterwards the root row holds the XOR of the terminal rows,
        and replaying the ops that do not target the root in reverse
        restores every other row. Raises ValueError when `root` is not in
        `terms`.

        On masks: the reversed BFS order marks the carrying vertices, each
        sets its bit in its parent's child mask, and a stack descends into
        the lowest unvisited child bit.
        """
        n = self.num_qubits
        if not (0 <= root < n and terms >> root & 1):
            raise ValueError(f"root {root} is not a terminal")
        key = terms * n + root
        cached = self.memos["gather"].get(key)
        if cached is not None:
            return cached
        tree = self.terminal_tree(mask_to_legs(terms), -1)
        parent, order = rooted_tree(neighbour_masks(tree, n), root)
        carries = terms  # vertices whose subtree holds a terminal
        for v in reversed(order):
            if carries >> v & 1:
                carries |= 1 << parent[v]
        children = [0] * n
        for v in order[1:]:
            if carries >> v & 1:
                children[parent[v]] |= 1 << v
        ops: list[tuple[int, int]] = []
        stack = [root]
        while stack:
            v = stack[-1]
            rest = children[v]
            if rest:
                low = rest & -rest
                children[v] = rest ^ low
                child = low.bit_length() - 1
                if not terms >> child & 1:
                    ops.append((child, v))
                stack.append(child)
            else:
                stack.pop()
                if stack:
                    ops.append((v, parent[v]))
        return memo_put(self.memos["gather"], key, tuple(ops))

    def non_cut_vertices(self, vertices: int) -> int:
        """Mask of the vertices whose removal leaves the rest of the
        `vertices` mask connected; a single vertex is its own."""
        cached = self.memos["non_cut"].get(vertices)
        if cached is None:
            cached = 0
            for v in mask_to_legs(vertices):
                rest = vertices & ~(1 << v)
                # the BFS stays inside `rest`, so it reaches all of it iff
                # it leaves just the vertices outside `rest` unreached
                outside = self.num_qubits - rest.bit_count()
                if not rest or self.bfs(rest.bit_length() - 1, rest).count(-1) == outside:
                    cached |= 1 << v
            cached = memo_put(self.memos["non_cut"], vertices, cached)
        return cached

    def distances_within(self, vertices: int) -> tuple[tuple[int, ...] | None, ...]:
        """Hop counts inside the `vertices` mask: entry u is bfs(u, vertices)
        for each u in the mask, None for the others."""
        cached = self.memos["distances"].get(vertices)
        if cached is None:
            cached = memo_put(self.memos["distances"], vertices, tuple(
                tuple(self.bfs(u, vertices)) if vertices >> u & 1 else None
                for u in range(self.num_qubits)
            ))
        return cached

    @staticmethod
    def _prim(terms: list[int], dist) -> list[tuple[int, int]]:
        """Edges (u, v), u < v, of the metric closure's minimum spanning
        tree over the ascending `terms`, with `dist` the hop table over n
        vertices. Prim, grown from the smallest terminal: keys[i] is the
        least key of an edge from the tree to the terminal rest[i], the edge
        (u, v) at distance d keyed by the one int (d * n + u) * n + v, which
        orders as the tuple (d, u, v) does since u, v < n. Keys are
        distinct, so the spanning tree is unique."""
        n = len(dist)
        root, *rest = terms
        row = dist[root]
        keys = [(row[t] * n + root) * n + t for t in rest]
        chosen: list[tuple[int, int]] = []
        while keys:
            i = keys.index(min(keys))
            key = keys.pop(i)
            t = rest.pop(i)
            chosen.append((key // n % n, key % n))
            row = dist[t]
            for j, s in enumerate(rest):
                key = (row[s] * n + t) * n + s if t < s else (row[s] * n + s) * n + t
                if key < keys[j]:
                    keys[j] = key
        return chosen

    def __repr__(self) -> str:
        return f"Architecture({self.name!r}, qubits={self.num_qubits}, edges={len(self.edges)})"


def neighbour_masks(edges: Iterable[tuple[int, int]], num_qubits: int) -> list[int]:
    """Per-vertex neighbour bitmasks of an undirected edge set over
    vertices 0..num_qubits-1: bit b of entry a is set for each edge (a, b)."""
    nbrs = [0] * num_qubits
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return nbrs


def rooted_tree(nbrs: list[int], root: int) -> tuple[list[int], list[int]]:
    """Root a graph given by per-vertex neighbour bitmasks at `root`;
    return (parent list, BFS vertex order) over the vertices reached.

    Each vertex of the order visits its unvisited neighbours lowest bit
    first, so children come in ascending index order; the root is its own
    parent, and unreached vertices have parent -1. Given a graph with
    cycles, the parents form its BFS spanning tree.
    """
    parent = [-1] * len(nbrs)
    parent[root] = root
    seen = 1 << root
    order = [root]
    for u in order:  # the order grows behind the loop: a BFS queue
        fresh = nbrs[u] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            v = low.bit_length() - 1
            parent[v] = u
            order.append(v)
            fresh ^= low
    return parent, order


def line(num_qubits: int) -> Architecture:
    return Architecture(
        num_qubits,
        [(i, i + 1) for i in range(num_qubits - 1)],
        name=f"line:{num_qubits}",
    )


def circle(num_qubits: int) -> Architecture:
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    if num_qubits > 2:
        edges.append((num_qubits - 1, 0))
    return Architecture(num_qubits, edges, name=f"circle:{num_qubits}")


def grid(rows: int, cols: int) -> Architecture:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return Architecture(rows * cols, edges, name=f"grid:{rows}x{cols}")


def complete(num_qubits: int) -> Architecture:
    edges = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
    return Architecture(num_qubits, edges, name=f"complete:{num_qubits}")


def _count(text: str) -> int:
    """A count by `ascii_number`, in digits with at most a leading minus (left
    for `line`, `grid`, ... to reject): int() would also take "+4" or " 4"."""
    if not text.lstrip("-").isdigit():
        raise ValueError(f"count {text!r} is not written in ASCII digits")
    return ascii_number(text, int, "count")


def build_architecture(spec: str | dict) -> Architecture:
    """Build an architecture from a descriptor.

    Accepts "line:Q", "circle:Q", "grid:RxC", "complete:Q", with Q, R and C
    in ASCII digits, or an explicit graph as {"qubits": Q, "edges": [[u, v],
    ...]} (as a dict or JSON text). Any other parsed JSON value is rejected.
    """
    if not isinstance(spec, str):
        try:
            if not isinstance(spec, dict):
                raise TypeError(f"expected an object, got {type(spec).__name__}")
            for e in spec["edges"]:
                if not isinstance(e, (list, tuple)) or len(e) != 2:
                    raise ValueError(f"malformed architecture JSON: edge {e!r} does not have two vertices")
            edges = [tuple(json_int(v, "edge vertex") for v in e) for e in spec["edges"]]
            return Architecture(json_int(spec["qubits"], "qubit count"), edges)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed architecture JSON: {exc}") from exc
    text = spec.strip()
    if text.startswith("{"):
        return build_architecture(json.loads(text))
    kind, _, arg = text.partition(":")
    kind = kind.lower()
    try:
        if kind == "line":
            return line(_count(arg))
        if kind == "circle":
            return circle(_count(arg))
        if kind == "complete":
            return complete(_count(arg))
        if kind == "grid":
            rows, _, cols = arg.lower().partition("x")
            return grid(_count(rows), _count(cols))
    except ValueError as exc:
        raise ValueError(f"bad architecture descriptor {spec!r}: {exc}") from exc
    raise ValueError(f"unknown architecture descriptor {spec!r}")
