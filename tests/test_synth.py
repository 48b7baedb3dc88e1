"""Cost model, greedy CNOT extraction, regrouping, divide and conquer."""

import dataclasses
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import zxpoly as zx
from zxpoly import arch as zx_arch, parity, sim, synth
from zxpoly.parity import identity_map
from conftest import (
    ARCH_FAMILIES, EXACT_ARCHS, effect_parity, exact_cnot_counts, gadget_cost, parity_unitary,
    random_invertible_map, random_zx_poly, regions_unitary, row_column_bound, star,
)

PH = zx.Phase


class TestGadgetCost:
    def test_single_leg_free(self):
        assert gadget_cost(zx.PhaseGadget.z([1], PH(1, 4)), zx.line(3)) == 0

    def test_adjacent_pair(self):
        assert gadget_cost(zx.PhaseGadget.z([0, 1], PH(1, 4)), zx.line(2)) == 2

    def test_gap_pair(self):
        assert gadget_cost(zx.PhaseGadget.z([0, 2], PH(1, 4)), zx.line(3)) == 4


class TestEffectZx:
    def test_empty(self):
        assert zx.effect_zx(zx.ZXPolynomial(3), zx.Cnot(0, 1), zx.line(3)) == 0

    def test_leg_removal(self):
        poly = zx.ZXPolynomial(3, (zx.PhaseGadget.z([0, 2], PH(1, 4)),))
        assert zx.effect_zx(poly, zx.Cnot(2, 0), zx.line(3)) == -4

    def test_leg_addition_neutral(self):
        poly = zx.ZXPolynomial(3, (zx.PhaseGadget.z([0, 2], PH(1, 4)),))
        # legs become {0,1,2}; the tree weight stays 2
        assert zx.effect_zx(poly, zx.Cnot(1, 2), zx.line(3)) == 0


@st.composite
def _table_cases(draw):
    q = draw(st.integers(2, 8))
    arch = ARCH_FAMILIES[draw(st.sampled_from(sorted(ARCH_FAMILIES)))](q)
    legs = st.one_of(st.integers(0, q - 1).map(lambda v: 1 << v), st.integers(1, (1 << q) - 1))
    gadgets = draw(st.lists(
        st.builds(zx.PhaseGadget, st.sampled_from("ZX"), legs, st.integers(1, 7).map(PH)),
        max_size=10,
    ))
    return zx.ZXPolynomial(q, tuple(gadgets)), arch


class TestZxTable:
    @settings(max_examples=300, deadline=None)
    @given(_table_cases())
    def test_matches_effect_zx_on_every_pair(self, case):
        poly, arch = case
        q = arch.num_qubits
        read = []
        tree_weight = arch.tree_weight
        arch.tree_weight = lambda legs: read.append(legs) or tree_weight(legs)
        table = synth._zx_table(poly, arch)
        table_reads = set(read)
        read.clear()
        assert [[zx.effect_zx(poly, zx.Cnot(c, t), arch) if c != t else 0 for t in range(q)]
                for c in range(q)] == table
        assert 0 not in table_reads
        assert table_reads == set(read)

    def test_empty_run_is_all_zero(self):
        assert synth._zx_table(zx.ZXPolynomial(3), zx.line(3)) == [[0] * 3 for _ in range(3)]

    def test_warm_table_equals_cold_for_shared_legs(self):
        # A Z and an X gadget on the same legs have transposed rows (line:4,
        # legs {0, 2}), so the "zx" memo must tell the two bases apart.
        z, x = (zx.PhaseGadget(basis, 0b0101, PH(1, 4)) for basis in "ZX")
        polys = [zx.ZXPolynomial(4, gadgets) for gadgets in ((z,), (x,), (z, x), (x, z, x))]
        cold = [synth._zx_table(poly, zx.line(4)) for poly in polys]
        assert cold[0] != cold[1]
        for poly, table in zip(polys, cold):
            assert table == [[zx.effect_zx(poly, zx.Cnot(c, t), zx.line(4)) if c != t else 0
                              for t in range(4)] for c in range(4)]
        for order in (polys, polys[::-1]):
            arch = zx.line(4)
            warm = {poly: synth._zx_table(poly, arch) for poly in order}
            assert [warm[poly] for poly in polys] == cold
        assert len(arch.memos["zx"]) == 2

    def test_orientation_by_basis(self):
        # On line:3 a leg on wire 2 costs one more edge. A Z gadget on {0,1}
        # gains it from CNOT(2,1) (tests wire 1), an X gadget from CNOT(1,2).
        arch = zx.line(3)
        z = synth._zx_table(zx.ZXPolynomial(3, (zx.PhaseGadget.z([0, 1], PH(1, 4)),)), arch)
        x = synth._zx_table(zx.ZXPolynomial(3, (zx.PhaseGadget.x([0, 1], PH(1, 4)),)), arch)
        assert (z[2][1], z[1][2]) == (2, 0)
        assert (x[2][1], x[1][2]) == (0, 2)


class TestEffectParity:
    def test_identity_absorbs_edge(self):
        assert effect_parity(identity_map(3), zx.Cnot(0, 1), "left", zx.line(3)) == -1
        assert effect_parity(identity_map(3), zx.Cnot(0, 1), "right", zx.line(3)) == -1

    def test_cancellation_gains(self):
        m = zx.append_cnot(identity_map(3), zx.Cnot(0, 1))
        assert effect_parity(m, zx.Cnot(0, 1), "left", zx.line(3)) == 1

    def test_distance_two_absorption_exceeds_hop_distance(self):
        # the map of a lone CNOT(0, 2) on line:3 needs 4 edge CNOTs, which
        # is optimal; absorbing that CNOT saves all 4 > d = 2
        arch = zx.line(3)
        cnot = zx.Cnot(0, 2)
        m = zx.from_cnots(3, [cnot])
        assert zx.cnot_cost(m, arch) == 4 == exact_cnot_counts(3, sorted(arch.edges))[m.rows]
        assert arch.dist[0][2] == 2
        for side in ("left", "right"):
            assert effect_parity(m, cnot, side, arch) == 4

    def test_bad_side(self):
        with pytest.raises(ValueError):
            effect_parity(identity_map(2), zx.Cnot(0, 1), "middle", zx.line(2))


class TestOptimizeGauss:
    def test_already_optimal_unchanged(self):
        arch = zx.line(3)
        poly = zx.ZXPolynomial(3, (zx.PhaseGadget.z([0], PH(1, 4)),))
        pl, out, pr = zx.optimize_gauss(identity_map(3), poly, identity_map(3), arch)
        assert pl.is_identity() and pr.is_identity() and out == poly

    def test_extracts_shared_structure(self):
        # three gadgets on legs {0,2}: pulling a CNOT pair through all of
        # them beats the parity overhead
        arch = zx.line(3)
        gadgets = tuple(
            zx.PhaseGadget("Z" if i % 2 else "X", 0b101, PH(1 + i, 4)) for i in range(3)
        )
        poly = zx.ZXPolynomial(3, gadgets)
        pl, out, pr = zx.optimize_gauss(identity_map(3), poly, identity_map(3), arch)
        before = sum(gadget_cost(g, arch) for g in poly.gadgets)
        after = (
            sum(gadget_cost(g, arch) for g in out.gadgets)
            + zx.cnot_cost(pl, arch) + zx.cnot_cost(pr, arch)
        )
        assert after < before
        u_before = sim.poly_unitary(poly)
        u_after = parity_unitary(pr) @ sim.poly_unitary(out) @ parity_unitary(pl)
        assert sim.equal_up_to_global_phase(u_before, u_after, 1e-9)

    def test_never_increases_total_estimate(self):
        rng = random.Random(21)
        for _ in range(80):
            q = rng.randint(2, 5)
            arch = [zx.line(q), zx.circle(q), zx.complete(q)][rng.randrange(3)]
            poly = random_zx_poly(rng, q, rng.randint(0, 10))
            before = sum(gadget_cost(g, arch) for g in poly.gadgets)
            pl, out, pr = zx.optimize_gauss(identity_map(q), poly, identity_map(q), arch)
            after = (
                sum(gadget_cost(g, arch) for g in out.gadgets)
                + zx.cnot_cost(pl, arch) + zx.cnot_cost(pr, arch)
            )
            assert after <= before

    def test_unitary_preserved(self):
        rng = random.Random(22)
        for _ in range(40):
            q = rng.randint(2, 4)
            arch = [zx.line(q), zx.circle(q), zx.complete(q)][rng.randrange(3)]
            poly = random_zx_poly(rng, q, rng.randint(1, 8))
            pl0, pr0 = random_invertible_map(rng, q), random_invertible_map(rng, q)
            pl, out, pr = zx.optimize_gauss(pl0, poly, pr0, arch)
            u_before = parity_unitary(pr0) @ sim.poly_unitary(poly) @ parity_unitary(pl0)
            u_after = parity_unitary(pr) @ sim.poly_unitary(out) @ parity_unitary(pl)
            assert sim.equal_up_to_global_phase(u_before, u_after, 1e-9)

    @staticmethod
    def _unpruned(pl, poly, pr, arch):
        """The sweep by its definition: every candidate priced exactly."""
        for control in range(arch.num_qubits):
            for target in range(arch.num_qubits):
                if control != target:
                    cnot = zx.Cnot(control, target)
                    net = (
                        zx.effect_zx(poly, cnot, arch)
                        - effect_parity(pl, cnot, "left", arch)
                        - effect_parity(pr, cnot, "right", arch)
                    )
                    if net < 0:
                        pl = zx.append_cnot(pl, cnot)
                        poly = zx.propagate_cnot_poly(poly, cnot)
                        pr = zx.prepend_cnot(pr, cnot)
        return pl, poly, pr

    @pytest.fixture
    def exact_costings(self, monkeypatch):
        """Maps one sweep costs exactly when it skips with `bound`, a
        rows-level bound (rows, dist) as `parity._rows_lower_bound`, and the
        flank pricers it takes (one, and one more per accept); the sweep
        must still return `expected`."""
        costings, pricers = [], []
        cnot_cost = parity.cnot_cost
        monkeypatch.setattr(parity, "cnot_cost",
                            lambda m, arch: costings.append(m) or cnot_cost(m, arch))
        flank_pricer = synth.flank_pricer
        monkeypatch.setattr(synth, "flank_pricer",
                            lambda *args: pricers.append(args) or flank_pricer(*args))

        def count(bound, pl, poly, pr, arch, expected):
            monkeypatch.setattr(parity, "_rows_lower_bound", bound)
            costings.clear()
            pricers.clear()
            assert zx.optimize_gauss(pl, poly, pr, arch) == expected
            return len(costings), len(pricers)
        return count

    def test_prune_matches_unpruned_sweep(self, exact_costings):
        # above EXACT_QUBITS, where the pricer costs maps and so can skip
        lower_bound = parity._rows_lower_bound  # the fixture patches the name
        rng = random.Random(28)
        pruned_some = False
        totals = {"bound": 0, "row_column": 0, "zx_only": 0}
        for _ in range(200):
            q = rng.randint(parity.EXACT_QUBITS + 1, parity.EXACT_QUBITS + 2)
            arch = [zx.line(q), zx.circle(q), zx.complete(q)][rng.randrange(3)]
            poly = random_zx_poly(rng, q, rng.randint(0, 8))
            pl, pr = (identity_map(q) if rng.random() < 0.5 else random_invertible_map(rng, q)
                      for _ in range(2))
            args = (pl, poly, pr, arch, self._unpruned(pl, poly, pr, arch))
            bound, pricers = exact_costings(lower_bound, *args)
            row_column, _ = exact_costings(
                lambda rows, dist: row_column_bound(zx.ParityMap(len(rows), rows)), *args)
            zx_only, _ = exact_costings(lambda rows, dist: 0, *args)  # skip on zx >= ceiling alone
            every = 2 * pricers + 2 * q * (q - 1)  # each pricer's flanks, two maps per candidate
            assert bound <= row_column <= zx_only <= every
            pruned_some |= zx_only < every
            totals["bound"] += bound
            totals["row_column"] += row_column
            totals["zx_only"] += zx_only
        assert pruned_some
        assert totals["bound"] < totals["row_column"] < totals["zx_only"]

    def test_bound_only_above_exact_qubits(self, monkeypatch):
        def bound(rows, dist):
            raise AssertionError("lower bound called")

        monkeypatch.setattr(parity, "_rows_lower_bound", bound)
        rng = random.Random(29)
        for _ in range(60):
            q = rng.randint(2, parity.EXACT_QUBITS)
            arch = [zx.line(q), zx.circle(q), zx.complete(q)][rng.randrange(3)]
            poly = random_zx_poly(rng, q, rng.randint(0, 8))
            pl, pr = (identity_map(q) if rng.random() < 0.5 else random_invertible_map(rng, q)
                      for _ in range(2))
            assert zx.optimize_gauss(pl, poly, pr, arch) == self._unpruned(pl, poly, pr, arch)
        for arch in EXACT_ARCHS:
            q = arch.num_qubits
            for _ in range(8):
                poly = random_zx_poly(rng, q, rng.randint(0, 8))
                pl, pr = (identity_map(q) if rng.random() < 0.5 else random_invertible_map(rng, q)
                          for _ in range(2))
                assert zx.optimize_gauss(pl, poly, pr, arch) == self._unpruned(pl, poly, pr, arch)
        # C(0, 1) shrinks the gadget (zx = -2 < ceiling = 0), so it is bounded
        poly = zx.ZXPolynomial(5, (zx.PhaseGadget.z([0, 1], PH(1, 4)),))
        with pytest.raises(AssertionError, match="lower bound called"):
            zx.optimize_gauss(identity_map(5), poly, identity_map(5), zx.line(5))

    def test_exact_rejects_build_nothing(self, monkeypatch):
        # up to EXACT_QUBITS a candidate is priced on the packed flanks: only
        # an accepted one builds its Cnot and its two maps, and none is costed
        calls = {"Cnot": 0, "append_cnot": 0, "prepend_cnot": 0, "propagate_cnot_poly": 0}
        for name in calls:
            fn = getattr(synth, name)
            monkeypatch.setattr(synth, name, lambda *args, name=name, fn=fn: (
                calls.__setitem__(name, calls[name] + 1) or fn(*args)))

        def cost(m, arch):
            raise AssertionError("cnot_cost called")

        monkeypatch.setattr(parity, "cnot_cost", cost)
        rng = random.Random(32)
        for arch in EXACT_ARCHS + [zx.line(2), zx.complete(2)]:
            q = arch.num_qubits
            for _ in range(8):
                poly = random_zx_poly(rng, q, rng.randint(0, 8))
                pl, pr = (identity_map(q) if rng.random() < 0.5 else random_invertible_map(rng, q)
                          for _ in range(2))
                zx.optimize_gauss(pl, poly, pr, arch)
        accepts = calls["propagate_cnot_poly"]
        assert accepts > 0
        assert calls == dict.fromkeys(calls, accepts)

    @pytest.mark.parametrize("arch", [zx.line(8), zx.circle(8), zx.grid(2, 4)],
                             ids=lambda arch: arch.name)
    def test_qaoa_candidates_rejected_before_costing(self, arch, exact_costings, monkeypatch):
        # every gauss sweep of a MaxCut synthesis, as the recursion makes it
        sweeps = []
        optimize = synth.optimize_gauss
        monkeypatch.setitem(synth._OPTIMIZERS, "gauss",
                            lambda *args: sweeps.append(args) or optimize(*args))
        for layers in (1, 2, 3):
            for seed in range(3):
                zx.synthesize(zx.maxcut_qaoa(8, 0.5, layers, seed), arch, "gauss")
        identity = identity_map(8)
        for args in sweeps:
            # a candidate C(c, t) must save more than the 2(2d - 1) the bound
            # charges each identity flank; none does, so only the flanks are
            # costed exactly, and none would have been accepted
            assert args[0] == args[2] == identity
            expected = self._unpruned(*args)
            assert expected == args[:3]
            assert exact_costings(parity._rows_lower_bound, *args, expected) == (2, 1)

    def test_bounded_rejects_build_nothing(self, monkeypatch):
        # above EXACT_QUBITS a candidate is bounded on copies of the flanks'
        # rows: `fits` hands cnot_cost no map for one the bound rejects
        cases = [(zx.maxcut_qaoa(8, 0.5, layers, seed), build)
                 for build in (lambda: zx.line(8), lambda: zx.circle(8), lambda: zx.grid(2, 4))
                 for layers in (1, 2, 3) for seed in range(3)]
        expected = [zx.synthesize(poly, build(), "gauss") for poly, build in cases]
        costed, asked = [], []  # maps handed to cnot_cost; (c, t, maps) per fits call
        cnot_cost = parity.cnot_cost
        monkeypatch.setattr(parity, "cnot_cost", lambda m, arch: costed.append(m) or cnot_cost(m, arch))
        flank_pricer = synth.flank_pricer

        def pricer(*args):
            ceiling, fits = flank_pricer(*args)

            def counted(c, t, budget):
                costed.clear()
                answer = fits(c, t, budget)
                asked.append((c, t, costed[:]))
                return answer
            return ceiling, counted

        monkeypatch.setattr(synth, "flank_pricer", pricer)
        assert [zx.synthesize(poly, build(), "gauss") for poly, build in cases] == expected
        assert asked and all(maps == [] for _, _, maps in asked)
        # C(0, 1) saves 4 on the two gadgets, more than the bound of 2, so
        # `fits` costs its two absorbed maps
        asked.clear()
        poly = zx.ZXPolynomial(5, (zx.PhaseGadget.z([0, 1], PH(1, 4)),
                                   zx.PhaseGadget.z([0, 1], PH(1, 8))))
        identity, cnot = identity_map(5), zx.Cnot(0, 1)
        zx.optimize_gauss(identity, poly, identity, zx.line(5))
        assert asked[0] == (0, 1, [zx.append_cnot(identity, cnot), zx.prepend_cnot(identity, cnot)])


def _fast_per_candidate(pl, poly, pr, arch):
    """`optimize_fast` one candidate at a time: `effect_zx` against -2*d(c, t)
    for every ordered pair, control-major."""
    for control in range(arch.num_qubits):
        for target in range(arch.num_qubits):
            if control == target:
                continue
            cnot = zx.Cnot(control, target)
            if zx.effect_zx(poly, cnot, arch) < -2 * arch.dist[control][target]:
                pl, poly, pr = (zx.append_cnot(pl, cnot), zx.propagate_cnot_poly(poly, cnot),
                                zx.prepend_cnot(pr, cnot))
    return pl, poly, pr


class TestOptimizeFast:
    def test_no_improvable_pair_unchanged(self):
        arch = zx.line(3)
        poly = zx.ZXPolynomial(3, (zx.PhaseGadget.z([0], PH(1, 4)),))
        pl, out, pr = zx.optimize_fast(identity_map(3), poly, identity_map(3), arch)
        assert pl.is_identity() and pr.is_identity() and out == poly

    def test_strictly_below_threshold_propagates(self):
        # two identical-leg gadgets: effect -4 < -2*d with d=1
        arch = zx.line(3)
        g = zx.PhaseGadget.z([0, 1, 2], PH(1, 4))
        poly = zx.ZXPolynomial(3, (g, g.with_phase(PH(3, 4))))
        assert zx.effect_zx(poly, zx.Cnot(0, 1), arch) == -4
        pl, out, pr = zx.optimize_fast(identity_map(3), poly, identity_map(3), arch)
        assert not pl.is_identity()
        u_before = sim.poly_unitary(poly)
        u_after = parity_unitary(pr) @ sim.poly_unitary(out) @ parity_unitary(pl)
        assert sim.equal_up_to_global_phase(u_before, u_after, 1e-9)

    def test_at_threshold_does_not_propagate(self):
        # single gadget: effect -2 is not strictly below -2*1
        arch = zx.line(3)
        poly = zx.ZXPolynomial(3, (zx.PhaseGadget.z([0, 1, 2], PH(1, 4)),))
        assert zx.effect_zx(poly, zx.Cnot(0, 1), arch) == -2
        pl, out, pr = zx.optimize_fast(identity_map(3), poly, identity_map(3), arch)
        assert pl.is_identity() and pr.is_identity() and out == poly

    def test_table_sweep_matches_per_candidate_sweep(self):
        rng = random.Random(29)
        accepted = 0
        for _ in range(240):
            q = rng.randint(2, 6)
            arch = [zx.line(q), zx.circle(q), zx.complete(q), star(q)][rng.randrange(4)]
            poly = random_zx_poly(rng, q, rng.randint(0, 10))
            pl, pr = (identity_map(q) if rng.random() < 0.5 else random_invertible_map(rng, q)
                      for _ in range(2))
            expected = _fast_per_candidate(pl, poly, pr, arch)
            assert zx.optimize_fast(pl, poly, pr, arch) == expected
            accepted += expected[1] != poly
        assert accepted >= 20

    def test_qaoa_synthesizes_no_parity_map(self, monkeypatch):
        # fast synthesizes no flank; lowering the regions would, but
        # `synthesize` does not lower
        calls = []
        monkeypatch.setattr(parity, "_shortest_variant", lambda m, arch: calls.append(m))
        for seed in range(3):
            zx.synthesize(zx.maxcut_qaoa(8, 0.5, 2, seed), zx.line(8), "fast")
        assert calls == []

    def test_never_prices_a_parity_region_exactly(self, monkeypatch):
        # fast charges hop distances: it neither costs nor synthesizes a map
        def refuse(*args):
            raise AssertionError("fast mode priced or synthesized a parity region")

        for module, name in ((parity, "cnot_cost"), (parity, "cnot_lower_bound"),
                             (parity, "_rows_lower_bound"),
                             (synth, "cnot_cost"), (synth, "flank_pricer"),
                             (synth, "steiner_gauss")):
            monkeypatch.setattr(module, name, refuse)
        rng = random.Random(35)
        moved = 0
        for arch in (zx.line(3), zx.grid(2, 3), zx.line(8)):
            for _ in range(12):
                poly = random_zx_poly(rng, arch.num_qubits, rng.randint(1, 10))
                regions = zx.synthesize(poly, arch, "fast")
                moved += any(not region.is_identity() for region in regions[::2])
                if arch.num_qubits <= 6:
                    assert sim.equal_up_to_global_phase(
                        regions_unitary(regions), sim.poly_unitary(poly), 1e-9)
        assert moved >= 10


class TestScore:
    def test_identical_full_legs(self):
        a = zx.PhaseGadget.z([0, 1, 2], PH(1, 4))
        b = zx.PhaseGadget.x([0, 1, 2], PH(1, 4))
        assert zx.score(a, b, 3) == 3

    def test_disjoint_singles(self):
        a = zx.PhaseGadget.z([0], PH(1, 4))
        b = zx.PhaseGadget.x([1], PH(1, 4))
        assert zx.score(a, b, 2) == -2

    def test_mixed(self):
        a = zx.PhaseGadget.z([0, 2], PH(1, 4))
        b = zx.PhaseGadget.x([1, 2], PH(1, 4))
        # wire 0: mismatch, wire 1: mismatch, wire 2: both
        assert zx.score(a, b, 3) == -1
        # an empty fourth wire counts -1
        assert zx.score(a, b, 4) == -2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda q: st.tuples(
        st.just(q), st.integers(1, (1 << q) - 1), st.integers(1, (1 << q) - 1))))
    def test_two_shared_legs_minus_the_wires(self, case):
        q, a_legs, b_legs = case
        a, b = zx.PhaseGadget("Z", a_legs, PH(1, 4)), zx.PhaseGadget("X", b_legs, PH(1, 4))
        per_wire = sum(1 if a_legs >> w & 1 and b_legs >> w & 1 else -1 for w in range(q))
        assert zx.score(a, b, q) == per_wire == 2 * (a_legs & b_legs).bit_count() - q


class TestRegroup:
    def test_already_grouped_unchanged(self):
        poly = zx.ZXPolynomial(2, (
            zx.PhaseGadget.z([0, 1], PH(1, 4)),
            zx.PhaseGadget.x([0, 1], PH(1, 8)),
            zx.PhaseGadget.z([0], PH(3, 8)),
        ))
        assert zx.regroup(poly) == poly

    def test_worked_example(self):
        # [a1, b2, b1, b4]: b1 shares a1's legs and should move next to it
        a1 = zx.PhaseGadget.z([0, 2], PH(1, 4))
        b2 = zx.PhaseGadget.x([1, 2], PH(1, 8))
        b1 = zx.PhaseGadget.x([0, 2], PH(3, 8))
        b4 = zx.PhaseGadget.x([1, 2], PH(5, 8))
        out = zx.regroup(zx.ZXPolynomial(3, (a1, b2, b1, b4)))
        assert out.gadgets == (a1, b1, b2, b4)

    def test_illegal_swap_blocked(self):
        # the score prefers bringing the third gadget forward, but the
        # adjacent pair neither commutes nor carries a pi phase
        poly = zx.ZXPolynomial(2, (
            zx.PhaseGadget.z([0, 1], PH(1, 4)),
            zx.PhaseGadget.x([1], PH(1, 4)),
            zx.PhaseGadget.z([0, 1], PH(3, 8)),
        ))
        assert zx.score(poly.gadgets[0], poly.gadgets[1], 2) < zx.score(
            poly.gadgets[0], poly.gadgets[2], 2
        )
        assert zx.regroup(poly) == poly

    def test_preserves_multiset_and_unitary(self):
        rng = random.Random(23)
        for _ in range(60):
            q = rng.randint(1, 5)
            poly = random_zx_poly(rng, q, rng.randint(0, 10))
            out = zx.regroup(poly)
            key = lambda g: (g.basis, g.legs)
            assert sorted(map(key, poly.gadgets)) == sorted(map(key, out.gadgets))
            assert sim.equal_up_to_global_phase(
                sim.poly_unitary(poly), sim.poly_unitary(out), 1e-9
            )


class TestSplit:
    @pytest.mark.parametrize("n,expected", [(4, (2, 2)), (5, (3, 2)), (1, (1, 0))])
    def test_ceiling_split(self, n, expected):
        rng = random.Random(n)
        poly = random_zx_poly(rng, 3, n)
        head, tail = zx.split(poly)
        assert (len(head), len(tail)) == expected
        assert head.gadgets + tail.gadgets == poly.gadgets

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            zx.split(zx.ZXPolynomial(2))


class TestSynthesize:
    def test_empty_polynomial(self):
        regions = zx.synthesize(zx.ZXPolynomial(3), zx.line(3))
        assert len(regions) == 1
        assert isinstance(regions[0], zx.ParityMap) and regions[0].is_identity()

    def test_two_gadgets_no_split(self):
        rng = random.Random(24)
        poly = random_zx_poly(rng, 3, 2)
        regions = zx.synthesize(poly, zx.line(3), "fast")
        assert len(regions) == 3
        assert isinstance(regions[0], zx.ParityMap)
        assert isinstance(regions[1], zx.ZXPolynomial)
        assert isinstance(regions[2], zx.ParityMap)

    @pytest.mark.parametrize("mode", ["fast", "gauss"])
    def test_regions_are_frozen(self, mode):
        poly = random_zx_poly(random.Random(26), 4, 12, 3)
        regions = zx.synthesize(poly, zx.line(4), mode)
        assert len(regions) > 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            regions[0].rows = identity_map(4).rows
        with pytest.raises(dataclasses.FrozenInstanceError):
            regions[1].gadgets = ()

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            zx.synthesize(zx.ZXPolynomial(2), zx.line(2), "annealing")

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            zx.synthesize(zx.ZXPolynomial(3), zx.line(2))

    def test_size_mismatch_names_both_counts(self):
        with pytest.raises(ValueError, match="polynomial has 3 qubits, architecture line:2 has 2"):
            zx.synthesize(zx.ZXPolynomial(3), zx.line(2))

    @pytest.mark.parametrize("mode", ["fast", "gauss"])
    @pytest.mark.parametrize("legs, problem", [
        pytest.param(0, "^a phase gadget needs at least one leg", id="0-empty leg set"),
        pytest.param(0b1001, "^invalid polynomial: gadget 1: leg 3 out of range",
                     id="9-leg 3 out of range"),
    ])
    def test_invalid_polynomial_is_reported_as_such(self, mode, legs, problem):
        # the polynomial is refused when it is built, before synthesis sees it
        with pytest.raises(ValueError, match=problem):
            poly = zx.ZXPolynomial(3, (zx.PhaseGadget.z([0, 1], PH(1, 4)),
                                       zx.PhaseGadget("Z", legs, PH(1, 4))))
            zx.synthesize(poly, zx.line(3), mode)

    def test_alternation_and_unitary(self):
        rng = random.Random(25)
        for _ in range(40):
            q = rng.randint(2, 5)
            archs = [zx.line(q), zx.circle(q), zx.complete(q)]
            poly = random_zx_poly(rng, q, rng.randint(0, 16), min(4, q))
            for arch in archs:
                for mode in ("fast", "gauss"):
                    regions = zx.synthesize(poly, arch, mode)
                    assert isinstance(regions[0], zx.ParityMap)
                    assert isinstance(regions[-1], zx.ParityMap)
                    for idx, region in enumerate(regions):
                        expected = zx.ParityMap if idx % 2 == 0 else zx.ZXPolynomial
                        assert isinstance(region, expected)
                        if isinstance(region, zx.ZXPolynomial):
                            assert 1 <= len(region.gadgets) <= 2
                    assert sim.equal_up_to_global_phase(
                        regions_unitary(regions), sim.poly_unitary(poly), 1e-9
                    )


class TestCostMemo:
    def test_shared_across_synthesize_calls(self, monkeypatch):
        calls = []
        shortest_variant = parity._shortest_variant

        def counting(m, arch):
            calls.append(m.rows)
            return shortest_variant(m, arch)

        monkeypatch.setattr(parity, "_shortest_variant", counting)
        arch = zx.line(5)  # q <= 4 maps are read from the exact table, not synthesized
        poly = random_zx_poly(random.Random(26), 5, 12, 3)
        first = zx.synthesize(poly, arch, "gauss")
        assert calls
        calls.clear()
        assert zx.synthesize(poly, arch, "gauss") == first
        assert calls == []

    def test_dies_with_its_architecture(self):
        arch = zx.line(5)
        zx.synthesize(random_zx_poly(random.Random(27), 5, 12, 3), arch, "gauss")
        assert arch.memos["sequence"]
        ref = weakref.ref(arch)
        del arch
        gc.collect()
        assert ref() is None

    def test_capped_memos_emit_the_same_gates(self, monkeypatch):
        def gates(polys, arch):
            return [zx.lower_regions(zx.synthesize(p, arch, "gauss"), arch).gates for p in polys]

        cases = []
        for q in (4, 6):  # q = 4 walks maps back through "exact", q = 6 synthesizes them
            polys = [zx.simplify(zx.random_poly(q, 8, 4, seed=s)) for s in range(5)]
            arch = zx.complete(q)
            cases.append((polys, gates(polys, arch)))
            assert len(arch.memos["sequence"]) > 8, q  # so the cap below evicts
        monkeypatch.setattr(zx_arch, "MEMO_CAP", 8)
        for polys, uncapped in cases:
            arch = zx.complete(polys[0].num_qubits)
            assert gates(polys, arch) == uncapped
            assert len(arch.memos) == 9
            for name, memo in arch.memos.items():
                if name == "exact":  # built whole, not through memo_put
                    assert len(memo) == (1 << 16 if arch.num_qubits == 4 else 0)
                else:
                    assert len(memo) <= 8, name
