"""Parity maps: append/prepend semantics, Gauss and Steiner-Gauss resynthesis."""

import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import zxpoly as zx
from conftest import (
    ARCH_FAMILIES, EXACT_ARCHS, exact_cnot_counts, gauss_cnots, gf2_invert, gf2_matmul,
    map_from_lists, map_to_lists, random_invertible_map, random_zx_poly, row_column_bound, star,
)
from zxpoly import parity
from zxpoly.poly import mask_to_legs


_OUT_OF_RANGE = [zx.Cnot(7, 0), zx.Cnot(0, 7)]  # on 4 qubits


def _out_of_range(cnot):
    return f"^{re.escape(str(cnot))} out of range for 4 qubits$"


class TestBasics:
    def test_identity(self):
        assert map_to_lists(zx.identity_map(1)) == [[1]]
        assert map_to_lists(zx.identity_map(3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert zx.identity_map(3).is_identity()

    def test_append_definitional(self):
        m = zx.append_cnot(zx.identity_map(2), zx.Cnot(0, 1))
        assert map_to_lists(m) == [[1, 0], [1, 1]]

    def test_append_involution(self):
        rng = random.Random(1)
        m = random_invertible_map(rng, 4)
        cn = zx.Cnot(2, 0)
        assert zx.append_cnot(zx.append_cnot(m, cn), cn) == m

    def test_prepend_matches_matrix_product(self):
        # prepending a gate multiplies the map by the gate's matrix on the right
        m = zx.prepend_cnot(zx.identity_map(3), zx.Cnot(2, 0))
        gate = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]  # row 0 += row 2
        assert map_to_lists(m) == gf2_matmul(map_to_lists(zx.identity_map(3)), gate)

        rng = random.Random(2)
        for _ in range(50):
            m = random_invertible_map(rng, 4)
            c, t = rng.sample(range(4), 2)
            gate = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
            gate[t][c] = 1
            prepended = zx.prepend_cnot(m, zx.Cnot(c, t))
            assert map_to_lists(prepended) == gf2_matmul(map_to_lists(m), gate)

    def test_str_grid(self):
        assert str(zx.identity_map(2)) == "1 0\n0 1"

    @pytest.mark.parametrize("cnot", _OUT_OF_RANGE, ids=["control", "target"])
    def test_append_rejects_a_cnot_out_of_range(self, cnot):
        with pytest.raises(ValueError, match=_out_of_range(cnot)):
            zx.append_cnot(random_invertible_map(random.Random(40), 4), cnot)

    @pytest.mark.parametrize("cnot", _OUT_OF_RANGE, ids=["control", "target"])
    def test_prepend_rejects_a_cnot_out_of_range(self, cnot):
        for m in (zx.identity_map(4), random_invertible_map(random.Random(41), 4)):
            with pytest.raises(ValueError, match=_out_of_range(cnot)):
                zx.prepend_cnot(m, cnot)

    @pytest.mark.parametrize("cnot", _OUT_OF_RANGE, ids=["control", "target"])
    def test_from_cnots_rejects_a_cnot_out_of_range(self, cnot):
        with pytest.raises(ValueError, match=_out_of_range(cnot)):
            zx.from_cnots(4, [zx.Cnot(1, 2), cnot])

    def test_list_rows_become_a_tuple(self):
        m = zx.ParityMap(2, [1, 3])
        assert m == zx.ParityMap(2, (1, 3)) and m.rows == (1, 3)
        arch = zx.line(2)
        assert zx.cnot_cost(m, arch) == 1
        assert zx.steiner_gauss(m, arch) == [zx.Cnot(0, 1)]
        assert zx.lower_regions([m], arch).gates == (zx.Cnot(0, 1),)


class TestGauss:
    def test_identity_empty(self):
        assert gauss_cnots(zx.identity_map(4)) == []

    def test_single_cnot_brute_force(self):
        m = map_from_lists([[1, 0], [1, 1]])
        # oracle: shortest CNOT sequence of length <= 2 realizing m
        shortest = None
        gates = [zx.Cnot(0, 1), zx.Cnot(1, 0)]
        for length in range(3):
            for seq in itertools.product(gates, repeat=length):
                if zx.from_cnots(2, seq) == m:
                    shortest = list(seq)
                    break
            if shortest is not None:
                break
        assert shortest == [zx.Cnot(0, 1)]
        assert gauss_cnots(m) == shortest

    def test_replay_random(self):
        rng = random.Random(3)
        for _ in range(200):
            q = rng.randint(1, 6)
            m = random_invertible_map(rng, q)
            assert zx.from_cnots(q, gauss_cnots(m)) == m

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            gauss_cnots(zx.ParityMap(2, (3, 3)))


def _topologies(q):
    archs = [zx.line(q), zx.circle(q), zx.complete(q)]
    for rows in range(2, q):
        if q % rows == 0:
            archs.append(zx.grid(rows, q // rows))
            break
    return archs


class TestSteinerGauss:
    def test_identity_empty(self):
        assert zx.steiner_gauss(zx.identity_map(4), zx.line(4)) == []

    def test_single_cnot(self):
        m = map_from_lists([[1, 0], [1, 1]])
        assert zx.steiner_gauss(m, zx.complete(2)) == [zx.Cnot(0, 1)]

    def test_replay_and_edges_line4(self):
        rng = random.Random(4)
        arch = zx.line(4)
        for _ in range(50):
            m = random_invertible_map(rng, 4)
            seq = zx.steiner_gauss(m, arch)
            assert zx.from_cnots(4, seq) == m
            assert all(arch.is_edge(c.control, c.target) for c in seq)

    def test_replay_all_topologies(self):
        rng = random.Random(5)
        for q in range(2, 9):
            for arch in _topologies(q):
                for _ in range(8):
                    m = random_invertible_map(rng, q)
                    seq = zx.steiner_gauss(m, arch)
                    assert zx.from_cnots(q, seq) == m, (arch.name, m.rows)
                    assert all(arch.is_edge(c.control, c.target) for c in seq)

    def test_explicit_star_graph(self):
        # stress: no vertex order of a star keeps both prefixes and suffixes connected
        arch = zx.Architecture(6, [(5, i) for i in range(5)], name="star:6")
        rng = random.Random(6)
        for _ in range(40):
            m = random_invertible_map(rng, 6)
            seq = zx.steiner_gauss(m, arch)
            assert zx.from_cnots(6, seq) == m
            assert all(arch.is_edge(c.control, c.target) for c in seq)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            zx.steiner_gauss(zx.identity_map(3), zx.line(4))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            zx.steiner_gauss(zx.ParityMap(2, (3, 3)), zx.complete(2))

    def test_complete_graph_sanity_band(self):
        # both syntheses are elimination-based; on all-to-all graphs the
        # architecture-aware one should stay within an additive band
        rng = random.Random(7)
        for _ in range(60):
            q = rng.randint(2, 7)
            m = random_invertible_map(rng, q)
            steiner = len(zx.steiner_gauss(m, zx.complete(q)))
            gauss = len(gauss_cnots(m))
            assert steiner <= gauss + q


class TestCnotCost:
    def test_identity_zero(self):
        assert zx.cnot_cost(zx.identity_map(3), zx.line(3)) == 0

    def test_single_cnot_cost(self):
        m = map_from_lists([[1, 0], [1, 1]])
        assert zx.cnot_cost(m, zx.complete(2)) == 1

    def test_pure_and_memoized(self):
        arch = zx.line(5)
        rng = random.Random(8)
        m = random_invertible_map(rng, 5)
        rows_before = m.rows
        first = zx.cnot_cost(m, arch)
        assert zx.cnot_cost(m, arch) == first
        assert m.rows == rows_before


def _star(q):
    return zx.Architecture(q, [(q - 1, i) for i in range(q - 1)], name=f"star:{q}")


_WARM = {  # shared by every example
    arch.name: arch for q in range(2, 9) for arch in _topologies(q) + [_star(q)]
}


def _relay_bound(m, arch):
    """max(r, c, 2D - min(r, c)) spelled out: non-unit rows r and columns c,
    D the farthest hop from a wire to an input its parity holds."""
    q = m.size
    columns = parity._gf2_transpose(m).rows
    r = sum(row != 1 << i for i, row in enumerate(m.rows))
    c = sum(col != 1 << i for i, col in enumerate(columns))
    reach = max((arch.dist[i][j] for i in range(q) for j in range(q)
                 if i != j and m.rows[i] >> j & 1), default=0)
    return max(r, c, 2 * reach - min(r, c))


class TestCnotLowerBound:
    def test_identity_zero(self):
        for q in range(1, 6):
            assert zx.cnot_lower_bound(zx.identity_map(q), zx.line(q)) == 0

    def test_single_cnot_one(self):
        for c, t in itertools.permutations(range(4), 2):
            assert zx.cnot_lower_bound(zx.from_cnots(4, [zx.Cnot(c, t)]), zx.complete(4)) == 1

    @pytest.mark.parametrize("d", range(1, 8))
    def test_single_cnot_pays_its_relays(self, d):
        m = zx.from_cnots(8, [zx.Cnot(0, d)])
        assert zx.cnot_lower_bound(m, zx.line(8)) == 2 * d - 1
        assert zx.cnot_lower_bound(m, zx.complete(8)) == 1

    def test_rows_and_columns_both_count(self):
        one_row = zx.ParityMap(3, (0b111, 0b010, 0b100))  # 1 non-unit row, 2 columns
        one_column = parity._gf2_transpose(one_row)  # 2 non-unit rows, 1 column
        arch = zx.complete(3)
        assert zx.cnot_lower_bound(one_row, arch) == zx.cnot_lower_bound(one_column, arch) == 2

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match architecture line:4"):
            zx.cnot_lower_bound(zx.identity_map(3), zx.line(4))

    @pytest.mark.parametrize("arch", [zx.line(3), zx.complete(3), zx.circle(3), zx.line(4),
                                      zx.circle(4), zx.complete(4), star(4)],
                             ids=lambda arch: arch.name)
    def test_below_optimum_on_every_map(self, arch):
        optimum = exact_cnot_counts(arch.num_qubits, sorted(arch.edges))
        assert len(optimum) == {3: 168, 4: 20160}[arch.num_qubits]
        tight = relayed = 0
        for rows, count in optimum.items():
            m = zx.ParityMap(arch.num_qubits, rows)
            bound = zx.cnot_lower_bound(m, arch)
            old = row_column_bound(m)
            assert old <= bound <= count
            tight += bound == count > 0
            relayed += bound > old
        assert tight
        # the relay term only bites where some pair of wires is 2 or more hops apart
        assert (relayed > 0) == (max(map(max, arch.dist)) >= 2)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(n for n, a in _WARM.items() if a.num_qubits <= 6)),
           st.randoms(use_true_random=False))
    def test_below_steiner_gauss_after_a_cnot(self, name, rng):
        arch = _WARM[name]
        q = arch.num_qubits
        m = random_invertible_map(rng, q)
        cnot = zx.Cnot(*rng.sample(range(q), 2))
        for absorbed in (zx.append_cnot(m, cnot), zx.prepend_cnot(m, cnot)):
            bound = zx.cnot_lower_bound(absorbed, arch)
            assert bound <= zx.cnot_cost(absorbed, arch)
            assert bound == _relay_bound(absorbed, arch)


class _CountingMemo(dict):
    def __init__(self):
        super().__init__()
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def _computing(q):
    """Patch, counting its calls, the function that computes a q-qubit
    map's "sequence" entry on a miss."""
    name = "_walk_back" if q <= parity.EXACT_QUBITS else "_shortest_variant"
    return mock.patch.object(parity, name, wraps=getattr(parity, name))


class TestSequenceMemo:
    @pytest.mark.parametrize("name", ["line:4", "complete:4", "line:6", "grid:2x3"])
    def test_one_read_per_call(self, name):
        arch = zx.build_architecture(name)
        q = arch.num_qubits
        memo = arch.memos["sequence"] = _CountingMemo()
        rng = random.Random(26)
        maps = {random_invertible_map(rng, q) for _ in range(30)} - {zx.identity_map(q)}
        # up to EXACT_QUBITS, cnot_cost reads the map's depth from the "exact"
        # table: no "sequence" read, no walk-back, nothing stored
        costed = q > parity.EXACT_QUBITS
        with _computing(q) as computed:
            for m in maps:
                gets, calls, stored = memo.gets, computed.call_count, len(memo)
                cost = zx.cnot_cost(m, arch)
                assert (memo.gets - gets, computed.call_count - calls) == (costed, costed)
                assert len(memo) == stored + costed
                assert len(zx.steiner_gauss(m, arch)) == cost
                assert (memo.gets - gets, computed.call_count - calls) == (costed + 1, 1)
        assert len(memo) == len(maps)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_WARM)), st.randoms(use_true_random=False))
    def test_warm_equals_cold(self, name, rng):
        warm = _WARM[name]
        m = random_invertible_map(rng, warm.num_qubits)
        seq = zx.steiner_gauss(m, warm)
        cold = zx.Architecture(warm.num_qubits, warm.edges, name)
        assert seq == zx.steiner_gauss(m, cold)
        assert zx.steiner_gauss(m, warm) == seq  # answered from the memo
        assert zx.cnot_cost(m, warm) == len(seq)
        assert zx.from_cnots(m.size, seq) == m

    def test_returned_list_is_fresh(self):
        arch = zx.grid(2, 3)
        m = random_invertible_map(random.Random(13), 6)
        first = zx.steiner_gauss(m, arch)
        assert first
        expected = list(first)
        first.clear()
        second = zx.steiner_gauss(m, arch)
        assert second == expected
        second.append(zx.Cnot(0, 1))
        assert zx.steiner_gauss(m, arch) == expected

    @pytest.mark.parametrize("q", [4, 5, 8])
    def test_identity_is_stored_once(self, q):
        arch = zx.line(q)
        identity = zx.identity_map(q)
        costed = q > parity.EXACT_QUBITS  # up to EXACT_QUBITS costing stores nothing
        with _computing(q) as computed:
            assert zx.cnot_cost(identity, arch) == 0
            assert computed.call_count == costed
            assert arch.memos["sequence"] == ({identity.rows: ()} if costed else {})
            assert not arch.memos["round"]  # synthesized in zero rounds, or not at all
            assert zx.steiner_gauss(identity, arch) == []
            assert zx.cnot_cost(identity, arch) == 0
            assert computed.call_count == 1
        assert arch.memos["sequence"] == {identity.rows: ()}


class TestExactTable:
    @pytest.mark.parametrize("arch", [zx.line(1), zx.line(2), *EXACT_ARCHS],
                             ids=lambda arch: arch.name)
    def test_every_map_at_the_optimum(self, arch):
        q = arch.num_qubits
        optimum = exact_cnot_counts(q, sorted(arch.edges))
        assert len(optimum) == {1: 1, 2: 6, 3: 168, 4: 20160}[q]
        for rows, count in optimum.items():
            m = zx.ParityMap(q, rows)
            assert zx.cnot_cost(m, arch) == count, rows
            seq = zx.steiner_gauss(m, arch)
            assert len(seq) == count, rows
            assert zx.from_cnots(q, seq) == m, rows
            assert all(arch.is_edge(g.control, g.target) for g in seq), rows

    @pytest.mark.parametrize("arch", [zx.line(1), zx.line(2), *EXACT_ARCHS],
                             ids=lambda arch: arch.name)
    def test_equals_reference_bfs(self, arch):
        # one byte per map: 1 + its depth in the exact_cnot_counts BFS, and 0
        # for every singular map
        q = arch.num_qubits
        optimum = exact_cnot_counts(q, sorted(arch.edges))
        zx.cnot_cost(zx.identity_map(q), arch)
        assert len(arch.memos["exact"]) == 1 << q * q
        expected = bytearray(1 << q * q)
        for rows, count in optimum.items():
            expected[sum(row << q * i for i, row in enumerate(rows))] = 1 + count
        assert arch.memos["exact"] == expected

    @pytest.mark.parametrize("arch", EXACT_ARCHS, ids=lambda arch: arch.name)
    def test_walk_back_undoes_the_first_move_one_level_shallower(self, arch):
        # walking back from the map, each step undoes the first move, in
        # (sorted edge, (u, v) then (v, u)) order, whose undo lowers the depth by one
        q = arch.num_qubits
        optimum = exact_cnot_counts(q, sorted(arch.edges))
        moves = [(c, t) for u, v in sorted(arch.edges) for c, t in ((u, v), (v, u))]

        def undo(rows, c, t):
            return rows[:t] + (rows[t] ^ rows[c],) + rows[t + 1:]

        for start in optimum:
            rows = start
            for gate in reversed(zx.steiner_gauss(zx.ParityMap(q, start), arch)):
                move = next((c, t) for c, t in moves
                            if optimum[undo(rows, c, t)] == optimum[rows] - 1)
                assert (gate.control, gate.target) == move, start
                rows = undo(rows, *move)
            assert rows == zx.identity_map(q).rows, start

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_every_singular_map_rejected(self, q):
        arch = zx.line(q)
        invertible = exact_cnot_counts(q, sorted(arch.edges))
        singular = [rows for rows in itertools.product(range(1 << q), repeat=q)
                    if rows not in invertible]
        assert len(singular) == (1 << q * q) - len(invertible)
        for rows in singular:
            m = zx.ParityMap(q, rows)
            for fn in (zx.cnot_cost, zx.steiner_gauss):
                with pytest.raises(ValueError, match="parity map is singular"):
                    fn(m, arch)

    def test_built_once_per_architecture_and_not_at_construction(self, monkeypatch):
        calls = []
        build = parity._exact_table

        def counting(arch):
            calls.append(arch)
            return build(arch)

        monkeypatch.setattr(parity, "_exact_table", counting)
        rng = random.Random(28)
        archs = [zx.line(4), zx.line(4)]
        assert calls == []
        assert all(not arch.memos["exact"] for arch in archs)
        for arch in archs:
            for _ in range(20):
                m = random_invertible_map(rng, 4)
                zx.cnot_cost(m, arch)
                zx.steiner_gauss(m, arch)
            zx.synthesize(random_zx_poly(rng, 4, 12, 3), arch, "gauss")
        assert calls == archs
        for arch in archs:
            assert len(arch.memos["exact"]) == 1 << 16
            assert not arch.memos["round"]

    def test_not_built_above_four_qubits(self):
        arch = zx.line(5)
        m = random_invertible_map(random.Random(29), 5)
        zx.cnot_cost(m, arch)
        zx.steiner_gauss(m, arch)
        assert not arch.memos["exact"]
        assert arch.memos["sequence"]

    @pytest.mark.parametrize("build", [zx.line, zx.circle, zx.complete], ids=lambda b: b.__name__)
    def test_warm_output_equals_cold(self, build):
        polys = [zx.simplify(zx.random_poly(4, 20, 4, seed=s)) for s in range(4)]
        warm = build(4)

        def gates(poly, arch):
            return zx.lower_regions(zx.synthesize(poly, arch, "gauss"), arch).gates

        for poly in polys:
            gates(poly, warm)
        for poly in polys:
            assert gates(poly, warm) == gates(poly, build(4))


class TestExactPricer:
    # `flank_pricer` up to EXACT_QUBITS, where it prices on the packed flanks
    @staticmethod
    def _check(pl, pr, arch):
        ceiling, price = parity.flank_pricer(pl, pr, arch)
        assert ceiling == zx.cnot_cost(pl, arch) + zx.cnot_cost(pr, arch)
        for c, t in itertools.permutations(range(arch.num_qubits), 2):
            cnot = zx.Cnot(c, t)
            # exact whatever the budget, even one no absorbed cost fits
            absorbed = (zx.cnot_cost(zx.append_cnot(pl, cnot), arch)
                        + zx.cnot_cost(zx.prepend_cnot(pr, cnot), arch))
            assert price(c, t, 0) == absorbed, (pl, pr, cnot)

    @pytest.mark.parametrize("arch", [a for a in EXACT_ARCHS if a.num_qubits == 3],
                             ids=lambda arch: arch.name)
    def test_every_q3_map_priced_by_definition(self, arch):
        # each invertible map is a left flank once and a right flank once
        maps = [zx.ParityMap(3, rows) for rows in exact_cnot_counts(3, sorted(arch.edges))]
        for pl, pr in zip(maps, reversed(maps)):
            self._check(pl, pr, arch)

    @pytest.mark.parametrize("arch", [a for a in EXACT_ARCHS if a.num_qubits == 4],
                             ids=lambda arch: arch.name)
    def test_sampled_q4_pairs_priced_by_definition(self, arch):
        rng = random.Random(32)
        maps = [zx.ParityMap(4, rows) for rows in exact_cnot_counts(4, sorted(arch.edges))]
        for _ in range(150):
            self._check(rng.choice(maps), rng.choice(maps), arch)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_flank_checked_as_cnot_cost_checks_it(self, side):
        # a flank of another size or a singular one fails the pricer, and the
        # sweep, with the error cnot_cost gives for it, on either side of
        # EXACT_QUBITS
        for q in (4, 5):
            arch = zx.line(q)
            poly = zx.ZXPolynomial(q, (zx.PhaseGadget.z([0, 1], zx.Phase(1, 4)),))
            singular = zx.ParityMap(q, (1, 1) + tuple(1 << i for i in range(2, q)))
            for flank, message in [
                (zx.identity_map(q - 1), f"map size {q - 1} does not match architecture line:{q}"),
                (singular, "parity map is singular"),
            ]:
                with pytest.raises(ValueError, match=message):
                    zx.cnot_cost(flank, arch)
                identity = zx.identity_map(q)
                pl, pr = (flank, identity) if side == "left" else (identity, flank)
                with pytest.raises(ValueError, match=message):
                    parity.flank_pricer(pl, pr, arch)
                with pytest.raises(ValueError, match=message):
                    zx.optimize_gauss(pl, poly, pr, arch)


class TestFlankPricer:
    # above EXACT_QUBITS the pricer may answer a budget with a bound
    @pytest.mark.parametrize("arch", [zx.line(5), zx.circle(6), zx.grid(2, 3)],
                             ids=lambda arch: arch.name)
    def test_price_meets_every_budget(self, arch):
        rng = random.Random(33)
        q = arch.num_qubits
        identity = zx.identity_map(q)
        maps = [identity] + [random_invertible_map(rng, q) for _ in range(3)]
        short = 0  # answers below the absorbed cost, where the bound sufficed
        for pl, pr in itertools.product(maps, repeat=2):
            ceiling, price = parity.flank_pricer(pl, pr, arch)
            assert ceiling == zx.cnot_cost(pl, arch) + zx.cnot_cost(pr, arch)
            for c, t in itertools.permutations(range(q), 2):
                cnot = zx.Cnot(c, t)
                absorbed = (zx.cnot_cost(zx.append_cnot(pl, cnot), arch)
                            + zx.cnot_cost(zx.prepend_cnot(pr, cnot), arch))
                for budget in range(absorbed + 2):
                    answer = price(c, t, budget)
                    assert min(answer, budget) == min(absorbed, budget), (pl, pr, cnot, budget)
                    assert answer <= absorbed
                    short += answer < absorbed
        assert short


_FAMILY_ARCHS = {  # shared by every example
    (family, q): build(q) for family, build in ARCH_FAMILIES.items() for q in range(2, 9)
}


class TestInverseVariant:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_FAMILY_ARCHS)), st.randoms(use_true_random=False))
    def test_backward_replay_is_the_inverse(self, family_q, rng):
        arch = _FAMILY_ARCHS[family_q]
        m = random_invertible_map(rng, arch.num_qubits)
        with mock.patch.object(parity, "_synthesize_raw", wraps=parity._synthesize_raw) as raw:
            parity._shortest_variant(m, arch)
        inverse = gf2_invert(m)
        assert [call.args[0] for call in raw.call_args_list] == [
            m, inverse, parity._gf2_transpose(m), parity._gf2_transpose(inverse)
        ]


def _reference_greedy(m, arch):
    """The greedy of `_synthesize_raw` without its round memo: every round
    runs a trial elimination of every non-cut pivot. Returns the (src, dst)
    row additions and the state, (remaining, rows), each round starts from.
    """
    rows = list(m.rows)
    ops, states = [], []
    remaining = (1 << m.size) - 1
    while remaining:
        states.append((remaining, tuple(rows)))
        trials = []
        for pivot in mask_to_legs(arch.non_cut_vertices(remaining)):
            trial_rows = rows[:]
            trial_ops = parity._eliminate_vertex(trial_rows, pivot, remaining, arch)
            trials.append((len(trial_ops), pivot, trial_ops, trial_rows))
        cheapest = min(t[0] for t in trials)
        tied = [t for t in trials if t[0] == cheapest]
        if len(tied) > 1:
            structured = parity._structured(remaining, rows)
            tied.sort(key=lambda t: (
                parity._stretch_penalty(arch, remaining, t[1], structured), t[1]))
        _, pivot, trial_ops, rows = tied[0]
        ops.extend(trial_ops)
        remaining &= ~(1 << pivot)
    assert all(row == 1 << i for i, row in enumerate(rows))
    return ops, states


class TestRoundMemo:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_WARM)), st.randoms(use_true_random=False))
    def test_warm_equals_memo_free_reference(self, name, rng):
        warm = _WARM[name]
        m = random_invertible_map(rng, warm.num_qubits)
        ops, _ = _reference_greedy(m, warm)
        expected = parity._cancel_cnots(ops[::-1])
        assert parity._synthesize_raw(m, warm) == expected
        assert parity._synthesize_raw(m, warm) == expected  # every round a hit

    def test_reached_state_skips_trials(self, monkeypatch):
        # two distinct maps whose first rounds end in the same state
        seen = {}
        rng = random.Random(31)
        while True:
            m = random_invertible_map(rng, 5)
            _, states = _reference_greedy(m, zx.line(5))
            if len(states) > 1 and seen.setdefault(states[1], m) != m:
                first = seen[states[1]]
                break
        calls = []
        eliminate = parity._eliminate_vertex

        def counting(*args):
            calls.append(args[1])
            return eliminate(*args)

        monkeypatch.setattr(parity, "_eliminate_vertex", counting)
        expected = parity._synthesize_raw(m, zx.line(5))
        cold_calls = len(calls)
        warm = zx.line(5)
        parity._synthesize_raw(first, warm)
        calls.clear()
        assert parity._synthesize_raw(m, warm) == expected
        assert len(calls) < cold_calls
        # only the first round runs its trials; every later state is stored
        assert calls == mask_to_legs(warm.non_cut_vertices(0b11111))


_NEAR_FAMILIES = ("line", "circle", "grid")
_NEAR_WARM = {  # shared by every example
    (family, q): ARCH_FAMILIES[family](q) for family in _NEAR_FAMILIES for q in range(3, 13)
}


def _free_pivots(remaining, rows, arch):
    """Non-cut pivots whose row and column are unit vectors among the
    remaining rows, spelled out."""
    return [
        v for v in mask_to_legs(arch.non_cut_vertices(remaining))
        if rows[v] == 1 << v
        and not any(rows[u] >> v & 1 for u in mask_to_legs(remaining) if u != v)
    ]


class TestFreeRounds:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(_NEAR_WARM)), st.integers(1, 4),
           st.randoms(use_true_random=False))
    def test_near_identity_matches_reference(self, family_q, count, rng):
        # a few coupling-edge CNOTs away from one spare non-cut vertex, so at
        # least the first round is free
        family, q = family_q
        warm = _NEAR_WARM[family_q]
        spare = rng.choice(mask_to_legs(warm.non_cut_vertices((1 << q) - 1)))
        edges = sorted(e for e in warm.edges if spare not in e)
        cnots = [zx.Cnot(*rng.sample(rng.choice(edges), 2)) for _ in range(count)]
        m = zx.from_cnots(q, cnots)
        ops, states = _reference_greedy(m, warm)
        remaining, rows = states[0]
        assert spare in _free_pivots(remaining, rows, warm)
        expected = parity._cancel_cnots(ops[::-1])
        assert parity._synthesize_raw(m, ARCH_FAMILIES[family](q)) == expected  # cold
        assert parity._synthesize_raw(m, warm) == expected
        assert parity._synthesize_raw(m, warm) == expected  # every round a hit

    def test_free_round_runs_no_trials(self, monkeypatch):
        arch = zx.line(5)
        m = zx.from_cnots(5, [zx.Cnot(1, 2), zx.Cnot(3, 2)])
        assert _free_pivots(0b11111, list(m.rows), arch) == [0, 4]
        calls = []
        eliminate = parity._eliminate_vertex

        def counting(*args):
            calls.append(args[1])
            return eliminate(*args)

        monkeypatch.setattr(parity, "_eliminate_vertex", counting)
        rows = list(m.rows)
        decided = parity._decide_round(rows, 0b11111, parity._structured(0b11111, rows), arch)
        assert calls == []
        ops, _ = _reference_greedy(m, zx.line(5))
        assert decided == (0, ())
        assert parity._synthesize_raw(m, arch) == parity._cancel_cnots(ops[::-1])

    @pytest.mark.parametrize("rows", [
        (0b0001, 0b0110, 0b0110, 0b1000),  # rows 1 and 2 equal
        (0b0001, 0b0100, 0b0100, 0b1000),  # column 1 zero
    ])
    def test_singular_map_with_free_pivots_rejected(self, rows):
        m = zx.ParityMap(4, rows)
        assert _free_pivots(0b1111, list(rows), zx.line(4)) == [0, 3]
        with pytest.raises(ValueError, match="parity map is singular"):
            zx.steiner_gauss(m, zx.line(4))


def _singular_maps(rng, q, draws):
    """Singular maps of q >= 5 qubits: `draws` random invertible maps with a
    duplicated row, a row the XOR of two others, or a zero column, and the
    two near-identity shapes of `test_singular_map_with_free_pivots_rejected`
    padded with unit rows."""
    maps = []
    for _ in range(draws):
        for shape in ("duplicate", "xor", "zero column"):
            rows = list(random_invertible_map(rng, q).rows)
            i, j, k = rng.sample(range(q), 3)
            if shape == "duplicate":
                rows[j] = rows[i]
            elif shape == "xor":
                rows[k] = rows[i] ^ rows[j]
            else:
                rows = [row & ~(1 << j) for row in rows]
            maps.append(zx.ParityMap(q, rows))
    pad = tuple(1 << i for i in range(4, q))
    maps += [zx.ParityMap(q, (0b0001, 0b0110, 0b0110, 0b1000) + pad),
             zx.ParityMap(q, (0b0001, 0b0100, 0b0100, 0b1000) + pad)]
    return maps


_STOP_ARCHS = [(family, q) for family in _NEAR_FAMILIES for q in range(5, 9)]


class TestEarlyStop:
    @pytest.mark.parametrize("q", [5, 6, 7])
    @pytest.mark.parametrize("build", [zx.line, zx.circle, zx.complete],
                             ids=lambda b: b.__name__)
    def test_greedy_rejects_singular_maps(self, build, q):
        arch = build(q)
        for m in _singular_maps(random.Random(q), q, 50):
            for fn in (zx.cnot_cost, zx.steiner_gauss):
                with pytest.raises(ValueError, match="parity map is singular"):
                    fn(m, arch)
        assert not arch.memos["sequence"]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_STOP_ARCHS), st.booleans(), st.randoms(use_true_random=False))
    def test_no_round_is_decided_without_structure(self, family_q, near_identity, rng):
        family, q = family_q
        arch = ARCH_FAMILIES[family](q)  # cold: every round is decided afresh
        m = random_invertible_map(rng, q, q // 2 if near_identity else None)
        decide = parity._decide_round
        decided = []

        def checked(rows, remaining, structured, arch):
            assert structured == parity._structured(remaining, rows) != 0
            decided.append((remaining, tuple(rows)))
            return decide(rows, remaining, structured, arch)

        with mock.patch.object(parity, "_decide_round", checked):
            raw = parity._synthesize_raw(m, arch)
        ops, states = _reference_greedy(m, arch)
        assert raw == parity._cancel_cnots(ops[::-1])
        # the decided rounds are the reference's rounds up to the first
        # state without structure, after which it only runs free rounds
        assert decided == [(remaining, rows) for remaining, rows in states
                           if parity._structured(remaining, list(rows))]
        assert decided == states[:len(decided)]
