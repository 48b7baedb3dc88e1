"""Peephole simplification: merging, removal, and movement soundness."""

import random

import numpy as np
import pytest

import zxpoly as zx
from zxpoly import sim
from zxpoly.simplify import _attempt_merge_left
from conftest import random_zx_poly, reference_simplify

PH = zx.Phase


def hadamard_pair_poly(copies: int = 2) -> zx.ZXPolynomial:
    """`copies` Hadamards on one wire, each as the Z-X-Z quarter-turn triple."""
    triple = [
        zx.PhaseGadget.z([0], PH(1, 2)),
        zx.PhaseGadget.x([0], PH(1, 2)),
        zx.PhaseGadget.z([0], PH(1, 2)),
    ]
    return zx.ZXPolynomial(1, tuple(triple * copies))


class TestExamples:
    def test_hadamard_pair_collapses(self):
        poly = hadamard_pair_poly(2)
        assert len(zx.simplify(poly)) == 0
        assert sim.equal_up_to_global_phase(sim.poly_unitary(poly), np.eye(2, dtype=complex), 1e-9)

    def test_single_gadget_unchanged(self):
        poly = zx.ZXPolynomial(1, (zx.PhaseGadget.z([0], PH(1, 4)),))
        assert zx.simplify(poly) == poly

    def test_merge_across_commuting_gadget(self):
        poly = zx.ZXPolynomial(3, (
            zx.PhaseGadget.z([0, 1], PH(1, 4)),
            zx.PhaseGadget.x([2], PH(3, 8)),
            zx.PhaseGadget.z([0, 1], PH(7, 4)),
        ))
        out = zx.simplify(poly)
        assert out.gadgets == (zx.PhaseGadget.x([2], PH(3, 8)),)
        assert sim.equal_up_to_global_phase(sim.poly_unitary(poly), sim.poly_unitary(out), 1e-9)

    def test_zero_phase_gadgets_removed(self):
        poly = zx.ZXPolynomial(2, (
            zx.PhaseGadget.z([0], PH(0)),
            zx.PhaseGadget.x([1], PH(1, 4)),
        ))
        assert zx.simplify(poly).gadgets == (zx.PhaseGadget.x([1], PH(1, 4)),)

    def test_blocked_gadget_stays_put(self):
        # odd overlap, no pi phases: nothing may move or merge
        poly = zx.ZXPolynomial(1, (
            zx.PhaseGadget.z([0], PH(1, 4)),
            zx.PhaseGadget.x([0], PH(1, 4)),
            zx.PhaseGadget.z([0], PH(1, 4)),
        ))
        assert zx.simplify(poly) == poly

    def test_pi_commutation_enables_merge(self):
        # moving X(pi/4) left across X(pi)? both X: commute. Use Z(pi) blocker:
        # [X(a), Z(pi), X(b)] on one wire: X(b) passes Z(pi) with negation,
        # merges into X(a - b); pi gadget stays.
        a, b = PH(1, 4), PH(3, 4)
        poly = zx.ZXPolynomial(1, (
            zx.PhaseGadget.x([0], a),
            zx.PhaseGadget.z([0], PH(1, 1)),
            zx.PhaseGadget.x([0], b),
        ))
        out = zx.simplify(poly)
        assert out.gadgets == (
            zx.PhaseGadget.x([0], a + (-b)),
            zx.PhaseGadget.z([0], PH(1, 1)),
        )
        assert sim.equal_up_to_global_phase(sim.poly_unitary(poly), sim.poly_unitary(out), 1e-9)


class TestProperties:
    def test_unitary_preserved_300(self):
        rng = random.Random(77)
        for _ in range(300):
            q = rng.randint(1, 5)
            poly = random_zx_poly(rng, q, rng.randint(0, 15), min(4, q))
            out = zx.simplify(poly)
            assert len(out) <= len(poly)
            assert sim.equal_up_to_global_phase(sim.poly_unitary(poly), sim.poly_unitary(out), 1e-9)

    def test_idempotent(self):
        rng = random.Random(78)
        for _ in range(100):
            q = rng.randint(1, 4)
            out = zx.simplify(random_zx_poly(rng, q, rng.randint(0, 12)))
            assert zx.simplify(out) == out


def random_pi_poly(rng: random.Random, q: int, n: int) -> zx.ZXPolynomial:
    """Gadgets of either basis with phases that are multiples of pi/4, each
    pi with probability 0.3, on few legs so that walks meet partners."""
    gadgets = []
    for _ in range(n):
        legs = rng.sample(range(q), rng.randint(1, min(q, 3)))
        phase = PH(1) if rng.random() < 0.3 else PH(rng.randint(1, 7), 4)
        gadgets.append(zx.PhaseGadget(rng.choice("ZX"), sum(1 << l for l in legs), phase))
    return zx.ZXPolynomial(q, tuple(gadgets))


class TestReference:
    def test_matches_exchange_walk(self):
        rng = random.Random(79)
        merged = 0
        for _ in range(400):
            q = rng.randint(1, 6)
            poly = random_pi_poly(rng, q, rng.randint(0, 60))
            out = zx.simplify(poly)
            assert out.gadgets == reference_simplify(poly).gadgets
            merged += len(poly) - len(out)
        assert merged  # the walks did reach partners


@pytest.fixture
def builds(monkeypatch):
    """Counts of `Phase.__neg__` and `PhaseGadget.with_phase` calls."""
    counts = {"neg": 0, "with_phase": 0}
    neg, with_phase = zx.Phase.__neg__, zx.PhaseGadget.with_phase

    def counted_neg(self):
        counts["neg"] += 1
        return neg(self)

    def counted_with_phase(self, phase):
        counts["with_phase"] += 1
        return with_phase(self, phase)

    monkeypatch.setattr(zx.Phase, "__neg__", counted_neg)
    monkeypatch.setattr(zx.PhaseGadget, "with_phase", counted_with_phase)
    return counts


class TestFailedWalkBuildsNothing:
    def test_blocked_after_pi_neighbour(self, builds):
        # X(1/4) passes Z(pi), which negates it, then Z(1/4) blocks it
        gadgets = [zx.PhaseGadget.z([0], PH(1, 4)), zx.PhaseGadget.z([0], PH(1)),
                   zx.PhaseGadget.x([0], PH(1, 4))]
        before = list(gadgets)
        assert not _attempt_merge_left(gadgets, 2)
        assert gadgets == before
        assert builds == {"neg": 0, "with_phase": 0}

    def test_partnerless_pi_mover(self, builds):
        # X(pi) passes both Z neighbours, negating each, and finds no partner
        gadgets = [zx.PhaseGadget.z([0], PH(1, 4)), zx.PhaseGadget.z([0, 1], PH(3, 4)),
                   zx.PhaseGadget.x([0], PH(1))]
        before = list(gadgets)
        assert not _attempt_merge_left(gadgets, 2)
        assert gadgets == before
        assert builds == {"neg": 0, "with_phase": 0}

    def test_irreducible_poly_builds_nothing(self, builds):
        # no two gadgets share basis and legs; every walk passes a pi gadget
        # or is one, and fails
        poly = zx.ZXPolynomial(2, (
            zx.PhaseGadget.x([0], PH(1)),
            zx.PhaseGadget.z([0], PH(1, 4)),
            zx.PhaseGadget.z([0, 1], PH(1)),
            zx.PhaseGadget.x([0, 1], PH(3, 4)),
            zx.PhaseGadget.x([1], PH(1, 2)),
        ))
        assert zx.simplify(poly) == poly
        assert builds == {"neg": 0, "with_phase": 0}

    def test_merge_builds_once(self, builds):
        # X(pi) passes Z(1/4), negating it, and merges into X(1/4)
        gadgets = [zx.PhaseGadget.x([0], PH(1, 4)), zx.PhaseGadget.z([0], PH(1, 4)),
                   zx.PhaseGadget.x([0], PH(1))]
        assert _attempt_merge_left(gadgets, 2)
        assert gadgets == [zx.PhaseGadget.x([0], PH(5, 4)), zx.PhaseGadget.z([0], PH(7, 4))]
        assert builds == {"neg": 1, "with_phase": 2}
