"""Rewrite rules, each checked against the dense-unitary oracle."""

import random

import numpy as np
import pytest

import zxpoly as zx
from zxpoly import sim
from zxpoly.rules import NEGATE_FIRST, NEGATE_SECOND, exchange_rule
from conftest import gadget_unitary, random_gadget

PH = zx.Phase


class TestCnot:
    def test_rejects_equal_wires(self):
        with pytest.raises(ValueError):
            zx.Cnot(1, 1)


class TestPropagation:
    def test_z_gadget_gains_control_leg(self):
        g = zx.PhaseGadget.z([1], PH(1, 4))
        assert zx.propagate_cnot_gadget(g, zx.Cnot(0, 1)).leg_list() == [0, 1]

    def test_x_gadget_gains_target_leg(self):
        g = zx.PhaseGadget.x([0], PH(1, 4))
        assert zx.propagate_cnot_gadget(g, zx.Cnot(0, 1)).leg_list() == [0, 1]

    def test_untouched_when_tested_wire_bare(self):
        g = zx.PhaseGadget.z([0], PH(1, 4))
        assert zx.propagate_cnot_gadget(g, zx.Cnot(0, 1)) == g

    def test_conjugation_identity_500(self):
        # CNOT * propagated * CNOT == original, exactly
        rng = random.Random(101)
        for _ in range(500):
            q = rng.randint(2, 4)
            g = random_gadget(rng, q)
            cnot = zx.Cnot(*rng.sample(range(q), 2))
            conj = sim.circuit_unitary(zx.Circuit(q, [cnot]))
            u_prop = gadget_unitary(zx.propagate_cnot_gadget(g, cnot), q)
            u_orig = gadget_unitary(g, q)
            assert np.linalg.norm(conj @ u_prop @ conj - u_orig) < 1e-12

    def test_poly_propagation(self):
        empty = zx.ZXPolynomial(2)
        cn = zx.Cnot(0, 1)
        assert zx.propagate_cnot_poly(empty, cn) == empty

        poly = zx.ZXPolynomial(2, (zx.PhaseGadget.z([1], PH(1, 4)), zx.PhaseGadget.x([0], PH(3, 4))))
        moved = zx.propagate_cnot_poly(poly, cn)
        assert [g.leg_list() for g in moved] == [[0, 1], [0, 1]]
        conj = sim.circuit_unitary(zx.Circuit(2, [cn]))
        assert np.linalg.norm(conj @ sim.poly_unitary(moved) @ conj - sim.poly_unitary(poly)) < 1e-12
        # conjugation by an involution
        assert zx.propagate_cnot_poly(moved, cn) == poly

    def test_poly_propagation_range_check(self):
        with pytest.raises(ValueError):
            zx.propagate_cnot_poly(zx.ZXPolynomial(2), zx.Cnot(0, 2))


class TestCommutes:
    def test_same_basis(self):
        assert zx.commutes(zx.PhaseGadget.z([0, 2], PH(1, 4)), zx.PhaseGadget.z([1, 2], PH(1, 4)))

    def test_even_overlap(self):
        assert zx.commutes(zx.PhaseGadget.z([0, 1], PH(1, 4)), zx.PhaseGadget.x([0, 1], PH(1, 4)))

    def test_odd_overlap(self):
        assert not zx.commutes(zx.PhaseGadget.z([0], PH(1, 4)), zx.PhaseGadget.x([0], PH(1, 4)))

    def test_matches_commutator_500(self):
        rng = random.Random(202)
        for _ in range(500):
            q = rng.randint(1, 4)
            a, b = random_gadget(rng, q), random_gadget(rng, q)
            ua, ub = gadget_unitary(a, q), gadget_unitary(b, q)
            numerically = np.linalg.norm(ua @ ub - ub @ ua) < 1e-12
            assert zx.commutes(a, b) == numerically


class TestExchange:
    def test_canonical_example(self):
        # Z(alpha) then X(pi), odd overlap: X(pi) passes left, alpha negates
        a = zx.PhaseGadget.z([0, 1, 2], PH(1, 4))
        b = zx.PhaseGadget.x([2, 3], PH(1, 1))
        assert not zx.commutes(a, b)
        swapped = zx.exchange(a, b)
        assert swapped == (b, a.with_phase(PH(7, 4)))

    def test_double_pi(self):
        a = zx.PhaseGadget.z([0], PH(1, 1))
        b = zx.PhaseGadget.x([0], PH(1, 1))
        assert zx.exchange(a, b) == (b, a)

    def test_not_applicable(self):
        a = zx.PhaseGadget.z([0], PH(1, 4))
        b = zx.PhaseGadget.x([0], PH(1, 2))
        assert zx.exchange(a, b) is None  # no pi phase
        c = zx.PhaseGadget.z([1], PH(1, 1))
        assert zx.exchange(a, c) == (c, a)  # already commutes: swapped as is

    def test_product_preserved_up_to_phase(self):
        rng = random.Random(303)
        applicable = commuting = 0
        while applicable < 300:
            q = rng.randint(1, 4)
            a, b = random_gadget(rng, q), random_gadget(rng, q)
            if rng.random() < 0.5:
                a = a.with_phase(PH(1, 1))
            if rng.random() < 0.5:
                b = b.with_phase(PH(1, 1))
            swapped = zx.exchange(a, b)
            if swapped is None:
                continue
            applicable += 1
            if zx.commutes(a, b):
                commuting += 1
                assert swapped == (b, a)
            first, second = swapped
            before = gadget_unitary(b, q) @ gadget_unitary(a, q)
            after = gadget_unitary(second, q) @ gadget_unitary(first, q)
            # phases are normalized into [0, 2pi), so the product is fixed
            # only up to the half-angle's global sign
            assert sim.equal_up_to_global_phase(before, after, 1e-12)
        # both rules were exercised
        assert 0 < commuting < applicable


class TestExchangeRule:
    def test_outcomes(self):
        z, x = zx.PhaseGadget.z([0], PH(1, 4)), zx.PhaseGadget.x([0], PH(1, 4))
        pi_z, pi_x = z.with_phase(PH(1, 1)), x.with_phase(PH(1, 1))
        assert exchange_rule(z, zx.PhaseGadget.x([1], PH(1, 4))) == 0  # commutes
        assert exchange_rule(pi_z, x) == NEGATE_SECOND
        assert exchange_rule(z, pi_x) == NEGATE_FIRST
        assert exchange_rule(pi_z, pi_x) == NEGATE_SECOND  # the left one carries pi
        assert exchange_rule(z, x) is None

    def test_exchange_applies_the_decision(self):
        rng = random.Random(505)
        seen = set()
        for _ in range(2000):
            q = rng.randint(1, 4)
            a, b = random_gadget(rng, q), random_gadget(rng, q)
            if rng.random() < 0.4:
                a = a.with_phase(PH(1, 1))
            if rng.random() < 0.4:
                b = b.with_phase(PH(1, 1))
            rule = exchange_rule(a, b)
            seen.add(rule)
            if rule is None:
                assert zx.exchange(a, b) is None
                continue
            negated_a = a.with_phase(-a.phase) if rule & NEGATE_FIRST else a
            negated_b = b.with_phase(-b.phase) if rule & NEGATE_SECOND else b
            assert zx.exchange(a, b) == (negated_b, negated_a)
        # every outcome came up
        assert seen == {None, 0, NEGATE_FIRST, NEGATE_SECOND}


class TestMerge:
    def test_merges_matching_gadgets(self):
        a = zx.PhaseGadget.x([0, 1, 2], PH(1, 4))
        b = zx.PhaseGadget.x([0, 1, 2], PH(1, 2))
        assert zx.try_merge(a, b) == zx.PhaseGadget.x([0, 1, 2], PH(3, 4))

    def test_merge_to_zero_is_removable(self):
        a = zx.PhaseGadget.z([0], PH(1, 1))
        merged = zx.try_merge(a, a)
        assert merged is not None and merged.phase.is_zero()

    def test_different_legs_not_applicable(self):
        a = zx.PhaseGadget.z([0, 1], PH(1, 4))
        b = zx.PhaseGadget.z([0, 2], PH(1, 4))
        assert zx.try_merge(a, b) is None

    def test_product_preserved_500(self):
        rng = random.Random(404)
        for _ in range(500):
            q = rng.randint(1, 4)
            a = random_gadget(rng, q)
            b = zx.PhaseGadget(a.basis, a.legs, PH(rng.randint(1, 7), 4))
            merged = zx.try_merge(a, b)
            assert merged is not None
            product = gadget_unitary(b, q) @ gadget_unitary(a, q)
            assert sim.equal_up_to_global_phase(product, gadget_unitary(merged, q), 1e-12)
