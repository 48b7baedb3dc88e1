"""Phase arithmetic, gadget and polynomial invariants, JSON round-trips."""

import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from zxpoly import Phase, PhaseGadget, ZXPolynomial
from zxpoly.poly import COEFFICIENT_BITS, legs_to_mask


class TestPhase:
    def test_half_plus_half_is_pi(self):
        assert Phase(1, 2) + Phase(1, 2) == Phase(1, 1)
        assert (Phase(1, 2) + Phase(1, 2)).is_pi()

    def test_wraparound_to_zero(self):
        total = Phase(3, 2) + Phase(1, 2)
        assert total.is_zero()
        assert total == Phase(0)

    def test_negate(self):
        assert -Phase(1, 4) == Phase(7, 4)
        assert -Phase(0) == Phase(0)
        assert -Phase(1) == Phase(1)

    def test_normalization(self):
        assert Phase(9, 4) == Phase(1, 4)
        assert Phase(-1, 4) == Phase(7, 4)
        assert Phase(2, 4) == Phase(1, 2)
        assert Phase(1, -2) == Phase(3, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            Phase(1, 0)
        with pytest.raises(ValueError):
            Phase(0, 0)


    def test_parse_and_str(self):
        assert Phase.parse("1/2") == Phase(1, 2)
        assert Phase.parse("-3/4") == Phase(5, 4)
        assert str(Phase(1, 1)) == "1/1"
        assert str(Phase(0)) == "0/1"

    @pytest.mark.parametrize("text", ["1_0/4", "1/4_0", "\u0663/4", "1/\u0664"])
    def test_parse_reads_ascii_digits_only(self, text):
        # Fraction() alone reads "1_0/4" as 10/4 and "\u0663/4" (Arabic-Indic 3) as 3/4
        with pytest.raises(ValueError, match=f"^phase {text!r} is not written in ASCII digits$"):
            Phase.parse(text)

    @pytest.mark.parametrize("text, phase", [(" 1/4 ", Phase(1, 4)), ("+1/2", Phase(1, 2)),
                                             ("0.25", Phase(1, 4)), ("5e-1", Phase(1, 2)),
                                             ("-3", Phase(1)), ("25e-0002", Phase(1, 4))])
    def test_parse_keeps_every_ascii_form(self, text, phase):
        assert Phase.parse(text) == phase

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", "-3E+0001000"])
    def test_parse_refuses_a_long_exponent_at_once(self, text):
        # Fraction alone would build 10**999999999, for hours
        start = time.perf_counter()
        with pytest.raises(ValueError, match="has an exponent of more than 3 digits$"):
            Phase.parse(text)
        assert time.perf_counter() - start < 1

    def test_sum_order_independent(self):
        # Abelian group: any summation order normalizes identically.
        rng = random.Random(42)
        for _ in range(1000):
            phases = [Phase(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(6)]
            shuffled = phases[:]
            rng.shuffle(shuffled)
            total_a = Phase(0)
            for p in phases:
                total_a = total_a + p
            total_b = Phase(0)
            for p in shuffled:
                total_b = total_b + p
            assert total_a == total_b


def fraction_phase(numerator: int, denominator: int) -> tuple[int, int]:
    """The (numerator, denominator) that `Fraction(n, d) % 2` normalizes to."""
    frac = Fraction(numerator, denominator) % 2
    return frac.numerator, frac.denominator


def as_pair(phase: Phase) -> tuple[int, int]:
    return phase.numerator, phase.denominator


class TestIntegerNormalization:
    """The integer normalization and arithmetic agree with Fraction's % 2."""

    def random_parts(self, rng: random.Random, bits: int) -> tuple[int, int]:
        numerator = rng.randint(-(1 << bits), 1 << bits)
        denominator = 0
        while not denominator:
            denominator = rng.randint(-(1 << bits), 1 << bits)
        return numerator, denominator

    def test_normalization_matches_fraction(self):
        rng = random.Random(40)
        for bits in (1, 3, 8, 64):
            for _ in range(300):
                n, d = self.random_parts(rng, bits)
                assert as_pair(Phase(n, d)) == fraction_phase(n, d)

    def test_negative_denominators_and_zero(self):
        for n in range(-9, 10):
            for d in (-8, -4, -3, -1, 1, 3, 4, 8):
                assert as_pair(Phase(n, d)) == fraction_phase(n, d)
        assert as_pair(Phase(0, -7)) == (0, 1)
        assert as_pair(Phase(0)) == (0, 1)

    def test_add_and_negate_match_fraction(self):
        rng = random.Random(41)
        for bits in (2, 5, 40):
            for _ in range(300):
                a, b = Phase(*self.random_parts(rng, bits)), Phase(*self.random_parts(rng, bits))
                fa, fb = a.as_fraction(), b.as_fraction()
                assert as_pair(a + b) == fraction_phase(*(fa + fb).as_integer_ratio())
                assert as_pair(-a) == fraction_phase(*(-fa).as_integer_ratio())

    def test_coefficient_bits_parts(self):
        # parts of exactly COEFFICIENT_BITS bits, the widest a QASM angle may reach
        rng = random.Random(42)

        def wide() -> int:
            magnitude = 1 << (COEFFICIENT_BITS - 1) | rng.getrandbits(COEFFICIENT_BITS - 1)
            return magnitude if rng.random() < 0.5 else -magnitude

        for _ in range(5):
            n, d = wide(), wide()
            assert as_pair(Phase(n, d)) == fraction_phase(n, d)
            a, b = Phase(n, d), Phase(wide(), wide())
            assert as_pair(a + b) == fraction_phase(
                *(a.as_fraction() + b.as_fraction()).as_integer_ratio())
            assert as_pair(-a) == fraction_phase(*(-a.as_fraction()).as_integer_ratio())


class TestPhaseGadget:
    def test_constructors(self):
        g = PhaseGadget.z([0, 2], Phase(1, 4))
        assert g.basis == "Z" and g.leg_list() == [0, 2] and g.legs.bit_count() == 2
        assert g.legs >> 2 & 1 and not g.legs >> 1 & 1

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            PhaseGadget("Y", 1, Phase(1, 4))

    def test_repeated_leg_rejected(self):
        with pytest.raises(ValueError, match="repeated leg index 0"):
            PhaseGadget.z([0, 0], Phase(1, 4))
        with pytest.raises(ValueError, match="repeated leg index 2"):
            legs_to_mask([2, 1, 2])
        assert legs_to_mask([2, 0]) == 0b101


class TestValidate:
    """A polynomial is checked when it is built, whichever way it is built."""

    LEGLESS = "^a phase gadget needs at least one leg, got legs mask 0$"

    def test_empty_polynomial_ok(self):
        assert ZXPolynomial(3).gadgets == ()

    def test_empty_legs_reported_with_index(self):
        # a leg-less gadget is refused before any polynomial could hold it
        with pytest.raises(ValueError, match=self.LEGLESS):
            ZXPolynomial(3, (PhaseGadget.z([0], Phase(1, 4)), PhaseGadget("Z", 0, Phase(1, 4))))

    def test_leg_out_of_range(self):
        with pytest.raises(ValueError,
                           match="^invalid polynomial: gadget 0: leg 3 out of range for 3 qubits$"):
            ZXPolynomial(3, (PhaseGadget.z([3], Phase(1, 4)),))

    def test_first_gadget_and_smallest_leg_named(self):
        ok, bad = PhaseGadget.z([0, 2], Phase(1, 4)), PhaseGadget.x([1, 5, 3], Phase(1, 4))
        with pytest.raises(ValueError,
                           match="^invalid polynomial: gadget 1: leg 3 out of range for 3 qubits$"):
            ZXPolynomial(3, (ok, bad, bad))

    @pytest.mark.parametrize("build", [
        lambda: PhaseGadget("Z", 0, Phase(1, 4)),
        lambda: PhaseGadget.z([], Phase(1, 4)),
        lambda: PhaseGadget.x([], Phase(1, 4)),
        lambda: PhaseGadget.z([1], Phase(1, 4)).with_legs(0),
        lambda: dataclasses.replace(PhaseGadget.x([1], Phase(1, 4)), legs=0),
    ], ids=["direct", "z", "x", "with_legs", "replace"])
    def test_legless_gadget_rejected_every_way(self, build):
        with pytest.raises(ValueError, match=self.LEGLESS):
            build()

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="^a phase gadget needs at least one leg, got legs mask -1$"):
            PhaseGadget("Z", -1, Phase(1, 4))

    def test_replace_rechecks_the_range(self):
        poly = ZXPolynomial(3, (PhaseGadget.z([0], Phase(1, 4)), PhaseGadget.z([1, 2], Phase(1, 4))))
        with pytest.raises(ValueError,
                           match="^invalid polynomial: gadget 1: leg 2 out of range for 2 qubits$"):
            dataclasses.replace(poly, num_qubits=2)

    def test_nonpositive_qubits_rejected(self):
        with pytest.raises(ValueError):
            ZXPolynomial(0)


class TestJson:
    def test_format_contract(self):
        poly = ZXPolynomial(2, (PhaseGadget.z([0, 1], Phase(1, 2)), PhaseGadget.x([1], Phase(1, 1))))
        data = poly.to_json_dict()
        assert data == {
            "qubits": 2,
            "gadgets": [
                {"basis": "Z", "legs": [0, 1], "phase": "1/2"},
                {"basis": "X", "legs": [1], "phase": "1/1"},
            ],
        }

    def test_round_trip_random(self):
        from conftest import random_zx_poly

        rng = random.Random(7)
        for _ in range(500):
            poly = random_zx_poly(rng, rng.randint(1, 8), rng.randint(0, 12))
            assert ZXPolynomial.from_json(poly.to_json()) == poly

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError):
            ZXPolynomial.from_json('{"qubits": 2, "gadgets": [{"basis": "Z", "legs": [5], "phase": "1/2"}]}')
        with pytest.raises(ValueError):
            ZXPolynomial.from_json('{"qubits": 2, "gadgets": [{"basis": "Z", "legs": [], "phase": "1/2"}]}')

    @pytest.mark.parametrize("legs, message", [
        ([], "^malformed polynomial JSON: a phase gadget needs at least one leg, got legs mask 0$"),
        ([1, 5], "^invalid polynomial: gadget 0: leg 5 out of range for 2 qubits$"),
    ], ids=["no-legs", "leg-out-of-range"])
    def test_invalid_json_names_the_problem(self, legs, message):
        text = json.dumps({"qubits": 2, "gadgets": [{"basis": "X", "legs": legs, "phase": "1/2"}]})
        with pytest.raises(ValueError, match=message):
            ZXPolynomial.from_json(text)

    def test_huge_leg_refused_before_its_mask_is_built(self):
        # 1 << 10**9 alone is a 125 MB int
        text = json.dumps({"qubits": 2, "gadgets": [{"basis": "Z", "legs": [0, 10**9], "phase": "1/4"}]})
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match="^invalid polynomial: gadget 0: leg 1000000000 out of range for 2 qubits$"):
            ZXPolynomial.from_json(text)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("legs", [[0, 0], [1.7], [True], [1.0], ["1"], [None], "01"])
    def test_legs_never_rewritten(self, legs):
        text = json.dumps({"qubits": 2, "gadgets": [{"basis": "Z", "legs": legs, "phase": "1/2"}]})
        with pytest.raises(ValueError, match="malformed polynomial JSON"):
            ZXPolynomial.from_json(text)

    @pytest.mark.parametrize("qubits", [2.7, True, "2"])
    def test_qubit_count_never_rewritten(self, qubits):
        with pytest.raises(ValueError, match="malformed polynomial JSON"):
            ZXPolynomial.from_json(json.dumps({"qubits": qubits, "gadgets": []}))
