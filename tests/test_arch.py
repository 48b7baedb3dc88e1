"""Coupling graphs: topology builders, distances, Steiner trees."""

import random
import re
import time

import pytest

import zxpoly as zx
from zxpoly import arch as zx_arch
from zxpoly.poly import mask_to_legs
from conftest import (
    ARCH_FAMILIES, bfs_distances, dead_relay_graph, edge_masks, exact_steiner_weight,
    random_connected_graph, rooted_tree, star, tree_edges, two_pass_gather,
)


class TestBuilders:
    def test_line(self):
        arch = zx.build_architecture("line:4")
        assert arch.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert arch.dist[0][3] == 3

    def test_complete(self):
        arch = zx.build_architecture("complete:5")
        assert arch.dist[2][4] == 1
        assert len(arch.edges) == 10

    def test_grid(self):
        arch = zx.build_architecture("grid:3x3")
        # row-major indexing: opposite corners are 4 hops apart
        oracle = bfs_distances(9, arch.edges, 0)
        assert arch.dist[0][8] == oracle[8] == 4

    def test_circle_antipode(self):
        assert zx.build_architecture("circle:6").dist[0][3] == 3

    def test_line_distance(self):
        assert zx.build_architecture("line:5").dist[1][4] == 3

    def test_explicit_json(self):
        arch = zx.build_architecture('{"qubits": 3, "edges": [[0, 2], [2, 1]]}')
        assert arch.dist[0][1] == 2

    def test_explicit_dict(self):
        arch = zx.build_architecture({"qubits": 2, "edges": [[0, 1]]})
        assert arch.is_edge(0, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            zx.build_architecture({"qubits": 3, "edges": [[0, 1]]})

    def test_disconnected_rejected_before_the_distance_table(self):
        # one BFS refuses it; the all-pairs table would hold 10^10 entries
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^architecture graph must be connected$"):
            zx.build_architecture({"qubits": 100000, "edges": []})
        assert time.perf_counter() - start < 1

    def test_qubit_count_mismatch_refused_before_the_distance_table(self):
        # `dist` is built on first read, and `synthesize` compares the counts first
        arch = zx.build_architecture({"qubits": 5000, "edges": [[i, i + 1] for i in range(4999)]})
        poly = zx.ZXPolynomial(1, (zx.PhaseGadget.z([0], zx.Phase(1, 2)),))
        with pytest.raises(ValueError, match="^polynomial and architecture disagree: "):
            zx.synthesize(poly, arch)
        assert "dist" not in vars(arch)
        assert not arch.memos["distances"]

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            zx.build_architecture("line:0")
        with pytest.raises(ValueError):
            zx.build_architecture("grid:0x3")

    @pytest.mark.parametrize("spec", ["grid:-1x-1", "grid:-2x-2", "grid:0x3", "grid:2x-1"])
    def test_non_positive_grid_rejected(self, spec):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            zx.build_architecture(spec)

    @pytest.mark.parametrize("spec, count", [
        ("line:3_0", "3_0"), ("grid:2x1_0", "1_0"), ("line:\u0663", "\u0663"), ("circle:+4", "+4"),
    ], ids=["underscore", "grid-underscore", "arabic-indic-digit", "plus-sign"])
    def test_count_must_be_ascii_decimal(self, spec, count):
        with pytest.raises(ValueError, match=re.escape(
                f"bad architecture descriptor {spec!r}: count {count!r} is not written in ASCII digits")):
            zx.build_architecture(spec)

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            zx.build_architecture("torus:4")

    @pytest.mark.parametrize("spec", ["line:4", "LINE:04", "circle:6", " grid:2X3 ", "complete:5",
                                      "grid:1x1"])
    def test_descriptor_size_is_the_built_name_and_count(self, spec):
        arch = zx.build_architecture(spec)
        assert zx_arch.descriptor_size(spec) == (arch.name, arch.num_qubits)

    @pytest.mark.parametrize("spec", ["torus:4", "line:0", "grid:-1x-1", "grid:2x-1", "grid:3",
                                      "line:3_0", "circle:+4", "line", "arch.json",
                                      '{"qubits": 2, "edges": [[0, 1]]}'])
    def test_descriptor_size_leaves_other_specs_to_the_builder(self, spec):
        assert zx_arch.descriptor_size(spec) is None

    def test_descriptor_size_builds_no_graph(self):
        start = time.perf_counter()
        assert zx_arch.descriptor_size("complete:100000") == ("complete:100000", 100000)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("family", sorted(ARCH_FAMILIES))
    def test_adjacency_is_a_frozen_view_of_the_edges(self, family):
        arch = ARCH_FAMILIES[family](6)
        assert arch.adj == tuple(
            tuple(sorted(w for e in arch.edges if u in e for w in e if w != u)) for u in range(6)
        )
        with pytest.raises(AttributeError):
            arch.adj[0].append(3)


class TestDistances:
    def test_grid_2x3_full_table(self):
        arch = zx.build_architecture("grid:2x3")
        for src in range(6):
            assert list(arch.dist[src]) == bfs_distances(6, arch.edges, src)

    def test_random_graphs_match_bfs(self):
        rng = random.Random(11)
        for _ in range(100):
            q = rng.randint(2, 10)
            edges = random_connected_graph(rng, q)
            arch = zx.Architecture(q, edges)
            for src in range(q):
                assert list(arch.dist[src]) == bfs_distances(q, edges, src)

    def test_metric_properties(self):
        arch = zx.build_architecture("grid:3x3")
        q = arch.num_qubits
        for u in range(q):
            assert arch.dist[u][u] == 0
            for v in range(q):
                assert arch.dist[u][v] == arch.dist[v][u]
                assert arch.dist[u][v] == 1 or not arch.is_edge(u, v)
                for w in range(q):
                    assert arch.dist[u][w] <= arch.dist[u][v] + arch.dist[v][w]


class TestShortestPath:
    def test_lexicographic_tie_break(self):
        # grid 2x2: two shortest paths 0-1-3 and 0-2-3; pick 0-1-3
        arch = zx.build_architecture("grid:2x2")
        assert arch.shortest_path(0, 3) == [0, 1, 3]

    def test_restricted_path(self):
        arch = zx.build_architecture("circle:5")
        assert arch.shortest_path(1, 4) == [1, 0, 4]
        assert arch.shortest_path(1, 4, allowed=0b11110) == [1, 2, 3, 4]
        for u, v in ((1, 0), (0, 1)):  # an endpoint outside the region
            with pytest.raises(ValueError, match=f"no path from {u} to {v}"):
                arch.shortest_path(u, v, allowed=0b11110)

    @pytest.mark.parametrize("u, v, bad", [(0, 7, 7), (4, 1, 4), (-1, 2, -1), (2, -3, -3)])
    def test_vertex_out_of_range_rejected(self, u, v, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            zx.line(4).shortest_path(u, v)


def _kruskal_tree(arch, terms, region):
    """The terminal tree as Kruskal builds it: the reference for the Prim
    builder, which must find the same unique spanning tree."""
    if len(terms) == 1:
        return ()
    dist = arch.distances_within(region)
    metric = sorted((dist[u][v], u, v) for i, u in enumerate(terms) for v in terms[i + 1:])
    parent = {t: t for t in terms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for _, u, v in metric:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
            if len(chosen) == len(terms) - 1:
                break
    union_edges = set()
    for u, v in chosen:
        path = arch.shortest_path(u, v, region)
        for a, b in zip(path, path[1:]):
            union_edges.add((min(a, b), max(a, b)))
    up, order = rooted_tree(union_edges, terms[0])
    return tuple(sorted((min(v, up[v]), max(v, up[v])) for v in order[1:]))


def _terminal_tree_edges(arch, terms, region):
    return tree_edges(arch.terminal_tree(terms, region))


def _tree_or_error(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestTerminalTree:
    def test_prim_matches_kruskal_reference(self):
        pairs = errors = 0
        for arch in (zx.line(6), zx.circle(6), zx.grid(2, 3), zx.complete(5), star(6)):
            for region in range(1, 1 << arch.num_qubits):
                for terms_mask in range(1, region + 1):
                    if terms_mask & ~region:
                        continue
                    terms = mask_to_legs(terms_mask)
                    expected = _tree_or_error(_kruskal_tree, arch, terms, region)
                    assert _tree_or_error(_terminal_tree_edges, arch, terms, region) == expected, \
                        (arch.name, terms, region)
                    pairs += 1
                    errors += isinstance(expected, str)
        # every (terminal set, region) pair, disconnected regions included
        assert pairs == 4 * (3 ** 6 - 2 ** 6) + 3 ** 5 - 2 ** 5 and errors > 0

    def test_line5_three_terminals(self):
        arch = zx.build_architecture("line:5")
        edges = tree_edges(arch.terminal_tree([0, 2, 4]))
        assert len(edges) == exact_steiner_weight(arch, {0, 2, 4}) == 4
        assert set(edges) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_single_terminal(self):
        arch = zx.build_architecture("grid:2x3")
        assert tree_edges(arch.terminal_tree([3])) == ()

    def test_complete_unit_metric(self):
        arch = zx.build_architecture("complete:4")
        assert len(tree_edges(arch.terminal_tree([0, 1, 2]))) == 2

    def test_empty_terminals_rejected(self):
        with pytest.raises(ValueError):
            zx.build_architecture("line:3").terminal_tree([])

    def test_anywhere_is_one_region(self):
        arch = zx.build_architecture("grid:2x3")
        terms, anywhere = [0, 2, 5], (-1, 0b111111)
        trees = [tree_edges(arch.terminal_tree(terms, allowed)) for allowed in anywhere]
        assert trees[0] == trees[1]
        assert arch.tree_weight(0b100101) == len(trees[0])
        with pytest.raises(ValueError, match="not in the allowed vertex set"):
            arch.terminal_tree(terms, 0)

    def test_structure_and_two_approximation(self):
        rng = random.Random(3)
        for _ in range(80):
            q = rng.randint(2, 6)
            arch = zx.Architecture(q, random_connected_graph(rng, q))
            terminals = set(rng.sample(range(q), rng.randint(1, q)))
            edges = tree_edges(arch.terminal_tree(terminals))
            weight = len(edges)
            assert arch.tree_weight(sum(1 << t for t in terminals)) == weight
            for u, v in edges:
                assert arch.is_edge(u, v)
            vertices = {v for e in edges for v in e} | terminals
            # acyclic and connected: |E| = |V| - 1 and all terminals reachable
            assert len(edges) == len(vertices) - 1
            start = next(iter(terminals))
            dist = bfs_distances(q, edges, start)
            assert all(dist[t] >= 0 for t in terminals)
            exact = exact_steiner_weight(arch, terminals)
            assert exact <= weight <= 2 * max(exact, 1)


WEIGHT_GRAPHS = {
    "line:8": lambda: zx.line(8),
    "circle:8": lambda: zx.circle(8),
    "grid:2x4": lambda: zx.grid(2, 4),
    "complete:6": lambda: zx.complete(6),
    "star:6": lambda: star(6),
    "grid:3x4": lambda: zx.grid(3, 4),
}


class TestTreeWeight:
    @pytest.mark.parametrize("build", WEIGHT_GRAPHS.values(), ids=WEIGHT_GRAPHS.keys())
    def test_matches_terminal_tree_on_every_mask(self, build):
        reference, arch = build(), build()
        masks = range(1, 1 << arch.num_qubits)
        expected = [len(tree_edges(reference.terminal_tree(mask_to_legs(m)))) for m in masks]
        assert [arch.tree_weight(m) for m in masks] == expected  # fresh
        for warm in (arch, reference):  # spans filled; trees filled
            assert [warm.tree_weight(m) for m in masks] == expected, warm.name

    def test_weight_table_answers_as_a_miss_does(self, monkeypatch):
        # misses weigh and store; hits answer from "weight" without Prim;
        # under MEMO_CAP = 8 most reads are misses again
        for build in (lambda: zx.line(7), lambda: zx.grid(2, 4), lambda: zx.complete(6),
                      lambda: star(7)):
            reference, arch = build(), build()
            masks = range(1, 1 << arch.num_qubits)
            expected = [len(tree_edges(reference.terminal_tree(mask_to_legs(m)))) for m in masks]
            assert [arch.tree_weight(m) for m in masks] == expected, arch.name
            assert set(arch.memos["weight"]) == {m for m in masks if m.bit_count() >= 3}
            with monkeypatch.context() as patched:
                patched.setattr(zx_arch.Architecture, "_prim", staticmethod(_refuse))
                assert [arch.tree_weight(m) for m in masks] == expected, arch.name
            with monkeypatch.context() as patched:
                patched.setattr(zx_arch, "MEMO_CAP", 8)
                capped = build()
                for _ in range(2):
                    assert [capped.tree_weight(m) for m in masks] == expected, arch.name
                assert len(capped.memos["weight"]) == 8

    @pytest.mark.parametrize("family", sorted(ARCH_FAMILIES))
    def test_two_terminals_weigh_their_distance(self, family):
        for q in range(2, 9):
            arch = ARCH_FAMILIES[family](q)
            masks = [1 << u | 1 << v for u in range(q) for v in range(u, q)]
            expected = [len(tree_edges(arch.terminal_tree(mask_to_legs(m)))) for m in masks]
            assert [arch.tree_weight(m) for m in masks] == expected, arch.name
            assert not arch.memos["span"], arch.name

    @pytest.mark.parametrize("legs, message", [
        (0, "terminal set must be non-empty"),
        (-1, "negative mask -1"),
        (-6, "negative mask -6"),
        (1 << 4, "terminal 4 out of range"),
        (0b100011, "terminal 5 out of range"),
    ])
    def test_bad_masks_rejected(self, legs, message):
        with pytest.raises(ValueError, match=message):
            zx.line(4).tree_weight(legs)


def _refuse(*args):
    raise AssertionError("called")


def _prim_by_tuples(terms, dist):
    """Prim over the metric closure with (distance, u, v) tuple keys."""
    best = {t: (dist[terms[0]][t], terms[0], t) for t in terms[1:]}
    chosen = []
    while best:
        t = min(best, key=best.__getitem__)
        chosen.append(best.pop(t)[1:])
        for s in best:
            best[s] = min(best[s], (dist[t][s], min(t, s), max(t, s)))
    return chosen


class TestPrim:
    def test_int_keys_order_as_tuple_keys(self):
        # complete:12 has every distance 1, so every choice is a tie
        rng = random.Random(36)
        archs = [zx.complete(12), zx.line(9), zx.circle(10), zx.grid(3, 4), star(8)]
        archs += [zx.Architecture(q, random_connected_graph(rng, q)) for q in (6, 9, 12)]
        for arch in archs:
            q = arch.num_qubits
            for _ in range(80):
                terms = sorted(rng.sample(range(q), rng.randint(2, q)))
                region = sum(1 << v for v in terms) | rng.getrandbits(q)
                for dist in (arch.dist, arch.distances_within(region)):
                    assert zx_arch.Architecture._prim(terms, dist) == _prim_by_tuples(terms, dist)


class TestMaskChecks:
    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="negative mask -1"):
            mask_to_legs(-1)

    @pytest.mark.parametrize("root", [0, 3])
    def test_negative_terms_rejected(self, root):
        arch = zx.line(4)
        with pytest.raises(ValueError, match="negative mask -1"):
            arch.gather(-1, root)

    @pytest.mark.parametrize("root", [3, 2, 7, -1])
    def test_root_outside_terms_rejected(self, root):
        arch = zx.line(4)
        with pytest.raises(ValueError, match=f"root {root} is not a terminal"):
            arch.gather(0b011, root)
        assert not arch.memos["gather"]

    def test_out_of_range_root_reads_no_gather_entry(self):
        arch = zx.line(4)
        arch.gather(0b0101, 0)  # key 0b0101 * 4 + 0, which root 4 of 0b0100 packs to
        with pytest.raises(ValueError, match="root 4 is not a terminal"):
            arch.gather(0b0100, 4)


class TestTreeStorage:
    def test_gather_stores_no_rooted_tree(self):
        # only its op tuples: the tree each miss builds and roots is dropped
        arch = zx.line(5)
        for terms in range(1, 1 << 5):
            for root in mask_to_legs(terms):
                arch.gather(terms, root)
        assert {name for name, memo in arch.memos.items() if memo} == {"distances", "gather"}
        assert list(arch.memos["distances"]) == [0b11111]  # the whole graph's, which `dist` reads


def _star(q):
    return zx.Architecture(q, [(q - 1, i) for i in range(q - 1)], name=f"star:{q}")


MEMO_GRAPHS = [zx.line(5), zx.grid(2, 3), zx.grid(3, 3), zx.circle(6), _star(6)]


class TestTreeMasks:
    @pytest.mark.parametrize("arch", MEMO_GRAPHS, ids=lambda a: a.name)
    def test_one_symmetric_tree_from_the_smallest_terminal(self, arch):
        # on every terminal set of every region that joins it: bit w of entry
        # v iff bit v of entry w, every tree vertex and terminal reached from
        # the smallest terminal, and |V| - 1 edges, each counted at both ends
        q = arch.num_qubits
        for region in range(1, 1 << q):
            dist = arch.distances_within(region)
            for terms_mask in range(1, region + 1):
                terms = mask_to_legs(terms_mask)
                if terms_mask & ~region or min(dist[terms[0]][t] for t in terms) < 0:
                    continue
                masks = arch.terminal_tree(terms, region)
                assert edge_masks(tree_edges(masks), q) == list(masks), (arch.name, terms, region)
                vertices = terms_mask | sum(1 << v for v, nbrs in enumerate(masks) if nbrs)
                assert not vertices & ~region, (arch.name, terms, region)
                reach = bfs_distances(q, tree_edges(masks), terms[0])
                assert all(reach[v] >= 0 for v in mask_to_legs(vertices)), (arch.name, terms, region)
                assert sum(nbrs.bit_count() for nbrs in masks) == 2 * (vertices.bit_count() - 1)

    def test_dead_relay_tree(self):
        # the prune from 0 cuts the cycle 4-5-8-9-7-6-4 at 7-9 and keeps the
        # relay branch 4-6-7, whose leaf 7 is no terminal
        arch = dead_relay_graph()
        assert tree_edges(arch.terminal_tree([0, 9, 12])) == (
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 10), (5, 8), (6, 7), (8, 9),
            (10, 11), (11, 12))


def _sub_distances(arch, vertices, source):
    """bfs_distances on the subgraph induced by the `vertices` mask."""
    sub = [(u, v) for u, v in arch.edges if vertices >> u & 1 and vertices >> v & 1]
    return bfs_distances(arch.num_qubits, sub, source)


def _connected(arch, vertices):
    members = [v for v in range(arch.num_qubits) if vertices >> v & 1]
    dist = _sub_distances(arch, vertices, members[0])
    return all(dist[v] >= 0 for v in members)


def _path_union(arch, terms, region):
    """The edges of the shortest paths along the Prim edges of `terms`
    inside `region`: the graph, cycles included, that `terminal_tree` prunes."""
    union = set()
    for u, v in zx_arch.Architecture._prim(terms, arch.distances_within(region)):
        path = arch.shortest_path(u, v, region)
        union.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return union


def _assert_roots_as_reference(arch, edges, root):
    parent, order = zx_arch.rooted_tree(edge_masks(edges, arch.num_qubits), root)
    ref_parent, ref_order = rooted_tree(edges, root)
    assert order == ref_order, (arch.name, sorted(edges), root)
    assert parent == [ref_parent.get(v, -1) for v in range(arch.num_qubits)], \
        (arch.name, sorted(edges), root)


class TestRootedTree:
    @pytest.mark.parametrize("arch", MEMO_GRAPHS, ids=lambda a: a.name)
    def test_matches_reference_on_trees_and_path_unions(self, arch):
        # every terminal tree at each terminal, and the path union it is
        # pruned from and the region's own edges, cycles included, at each
        # of their vertices: a child order other than ascending differs
        for region in range(1, 1 << arch.num_qubits):
            dist = arch.distances_within(region)
            induced = [(u, v) for u, v in arch.edges if region >> u & 1 and region >> v & 1]
            for root in mask_to_legs(region):
                _assert_roots_as_reference(arch, induced, root)
            for terms_mask in range(1, region + 1):
                terms = mask_to_legs(terms_mask)
                if terms_mask & ~region or min(dist[terms[0]][t] for t in terms) < 0:
                    continue  # outside the region, or no tree joins them in it
                union = _path_union(arch, terms, region)
                for root in terms:
                    _assert_roots_as_reference(arch, tree_edges(arch.terminal_tree(terms, region)), root)
                for root in sorted({v for e in union for v in e} | {terms[0]}):
                    _assert_roots_as_reference(arch, union, root)

    def test_matches_reference_on_dead_relay_unions(self):
        # the one graph here whose path union has a cycle, 4-5-8-9-7-6-4 for {0, 9, 12}
        arch = dead_relay_graph()
        assert {(4, 5), (5, 8), (8, 9), (4, 6), (6, 7), (7, 9)} <= _path_union(arch, [0, 9, 12], -1)
        for terms in range(1, 1 << arch.num_qubits):
            union = _path_union(arch, mask_to_legs(terms), -1)
            for root in sorted({v for e in union for v in e} | {mask_to_legs(terms)[0]}):
                _assert_roots_as_reference(arch, union, root)


class TestGraphMemos:
    @pytest.mark.parametrize("arch", MEMO_GRAPHS, ids=lambda a: a.name)
    def test_non_cut_vertices_match_bfs(self, arch):
        for vertices in range(1, 1 << arch.num_qubits):
            expected = sum(
                1 << v for v in range(arch.num_qubits)
                if vertices >> v & 1
                and (vertices == 1 << v or _connected(arch, vertices & ~(1 << v)))
            )
            for _ in range(2):  # cold, then memoized
                assert arch.non_cut_vertices(vertices) == expected, (arch.name, bin(vertices))

    @pytest.mark.parametrize("arch", MEMO_GRAPHS, ids=lambda a: a.name)
    def test_distances_within_match_bfs(self, arch):
        for vertices in range(1, 1 << arch.num_qubits):
            for _ in range(2):  # cold, then memoized
                table = arch.distances_within(vertices)
                for u in range(arch.num_qubits):
                    if vertices >> u & 1:
                        oracle = _sub_distances(arch, vertices, u)
                        assert list(table[u]) == [
                            d if vertices >> w & 1 else -1 for w, d in enumerate(oracle)
                        ], (arch.name, bin(vertices), u)
                    else:
                        assert table[u] is None

    @pytest.mark.parametrize("arch", MEMO_GRAPHS, ids=lambda a: a.name)
    def test_gather_matches_recursive_walk(self, arch):
        # every root of every terminal set, as the row step roots gather at any pivot;
        # the post-order walk is a reference for the ops, not for their order
        for terms in range(1, 1 << arch.num_qubits):
            for root in mask_to_legs(terms):
                parent, order = rooted_tree(tree_edges(arch.terminal_tree(mask_to_legs(terms))), root)
                children = {v: [] for v in order}
                for v in order[1:]:
                    children[parent[v]].append(v)

                def walk(v):
                    below = [op for child in sorted(children[v]) for op in walk(child)]
                    if not below and not terms >> v & 1:
                        return []  # a subtree with no terminal
                    relay = [] if terms >> v & 1 else [(v, parent[v])]
                    return relay + below + [(v, parent[v])]

                expected = sorted(op for child in sorted(children[root]) for op in walk(child))
                assert sorted(arch.gather(terms, root)) == expected, (arch.name, bin(terms), root)

    @pytest.mark.parametrize("arch", MEMO_GRAPHS, ids=lambda a: a.name)
    def test_gather_follows_two_pass_bfs_order(self, arch):
        for terms in range(1, 1 << arch.num_qubits):
            for root in mask_to_legs(terms):
                assert arch.gather(terms, root) == tuple(two_pass_gather(arch, terms, root)), (
                    arch.name, bin(terms), root)

    def test_gather_on_the_dead_relay_tree(self):
        # BFS order from 0 is 0 1 2 3 4 5 6 10 8 7 11 9 12, and the relay branch 6-7
        # holds no terminal: the carrying relays' pre-cancels come first in BFS order,
        # then every carrying vertex in reversed BFS order, so no op touches 6 or 7
        arch = dead_relay_graph()
        assert arch.gather(1 << 0 | 1 << 9 | 1 << 12, 0) == (
            (1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (10, 4), (8, 5), (11, 10),
            (12, 11), (9, 8), (11, 10), (8, 5), (10, 4), (5, 4), (4, 3), (3, 2), (2, 1), (1, 0))

    @pytest.mark.parametrize("arch", MEMO_GRAPHS, ids=lambda a: a.name)
    def test_gather_xors_terminals_onto_root(self, arch):
        q = arch.num_qubits
        identity = [1 << v for v in range(q)]
        for terms in range(1, 1 << q):
            for root in (v for v in range(q) if terms >> v & 1):
                ops = arch.gather(terms, root)
                assert all(arch.is_edge(child, parent) for child, parent in ops)
                rows = identity[:]
                for child, parent in ops:
                    rows[parent] ^= rows[child]
                assert rows[root] == terms, (arch.name, bin(terms), root)
                for child, parent in reversed(ops):
                    if parent != root:
                        rows[parent] ^= rows[child]
                assert rows == identity[:root] + [terms] + identity[root + 1:]
