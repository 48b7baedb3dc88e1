"""The dense-unitary oracle, cross-validated against itself and by hand, and
`sim.verify`, the one output check, against the oracle."""

import random
import time
from dataclasses import replace
from math import cos, pi, sin

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zxpoly as zx
from zxpoly import sim
from zxpoly.cli import main
from conftest import (
    ARCH_FAMILIES, gadget_unitary, map_from_lists, parity_unitary, random_gadget,
    random_invertible_map, regions_unitary,
)

PH = zx.Phase


class TestGadgetUnitary:
    def test_single_z_pi(self):
        u = gadget_unitary(zx.PhaseGadget.z([0], PH(1, 1)), 1)
        expected = np.diag([np.exp(-0.5j * pi), np.exp(0.5j * pi)])
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_zero_phase_is_identity(self):
        for basis in ("Z", "X"):
            g = zx.PhaseGadget(basis, 0b101, PH(0))
            np.testing.assert_allclose(gadget_unitary(g, 3), np.eye(8), atol=1e-15)

    def test_diagonal_matches_ladder(self):
        # two independent constructions of the same unitary
        rng = random.Random(1)
        for _ in range(200):
            q = rng.randint(1, 5)
            g = random_gadget(rng, q)
            arch = zx.complete(q) if q > 1 else zx.line(1)
            u_ladder = sim.circuit_unitary(zx.naive_gadget_circuit(g, arch))
            assert np.linalg.norm(gadget_unitary(g, q) - u_ladder) < 1e-12

    def test_unitarity(self):
        rng = random.Random(2)
        for _ in range(50):
            q = rng.randint(1, 4)
            u = gadget_unitary(random_gadget(rng, q), q)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(1 << q), atol=1e-10)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            gadget_unitary(zx.PhaseGadget.z([0], PH(1, 4)), 13)


class TestOracleDefinitions:
    """The oracle against matrices written out by hand from exp(-i*theta/2*P)."""

    def test_rx_half_pi(self):
        c = s = 2.0 ** -0.5  # cos and sin of pi/4
        expected = np.array([[c, -1j * s], [-1j * s, c]])
        u = sim.circuit_unitary(zx.Circuit(1, [zx.Rx(PH(1, 2), 0)]))
        np.testing.assert_allclose(u, expected, atol=1e-15)

    @pytest.mark.parametrize("phase", [PH(1, 3), PH(5, 4), PH(1)])
    def test_two_leg_z_is_diagonal_in_the_leg_parity(self, phase):
        t = phase.radians()
        # basis states 0b00, 0b01, 0b10, 0b11: leg parity 0, 1, 1, 0
        expected = np.diag(np.exp([-0.5j * t, 0.5j * t, 0.5j * t, -0.5j * t]))
        np.testing.assert_allclose(gadget_unitary(zx.PhaseGadget.z([0, 1], phase), 2),
                                   expected, atol=1e-15)

    @pytest.mark.parametrize("phase", [PH(1, 3), PH(5, 4), PH(1)])
    def test_two_leg_x_is_cos_minus_i_sin_xx(self, phase):
        t = phase.radians()
        xx = np.fliplr(np.eye(4))  # X on both wires maps basis state i to i ^ 0b11
        expected = cos(t / 2) * np.eye(4) - 1j * sin(t / 2) * xx
        np.testing.assert_allclose(gadget_unitary(zx.PhaseGadget.x([0, 1], phase), 2),
                                   expected, atol=1e-15)


class TestCircuitUnitary:
    def test_empty_circuit(self):
        np.testing.assert_allclose(sim.circuit_unitary(zx.Circuit(2)), np.eye(4), atol=1e-15)

    def test_cnot_permutation(self):
        u = sim.circuit_unitary(zx.Circuit(2, [zx.Cnot(0, 1)]))
        # qubit 0 is the least significant bit; CNOT(0,1) flips bit 1 when bit 0 is set
        expected = np.zeros((4, 4))
        for x in range(4):
            y = x ^ ((x & 1) << 1)
            expected[y, x] = 1
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_gate_order_is_temporal(self):
        circ = zx.Circuit(1, [zx.Rz(PH(1, 2), 0), zx.Rx(PH(1, 2), 0)])
        u = sim.circuit_unitary(circ)
        u_rz = sim.circuit_unitary(zx.Circuit(1, [zx.Rz(PH(1, 2), 0)]))
        u_rx = sim.circuit_unitary(zx.Circuit(1, [zx.Rx(PH(1, 2), 0)]))
        np.testing.assert_allclose(u, u_rx @ u_rz, atol=1e-12)


class TestParityUnitary:
    def test_matches_circuit(self):
        m = map_from_lists([[1, 0], [1, 1]])
        u_map = parity_unitary(m)
        u_circ = sim.circuit_unitary(zx.Circuit(2, [zx.Cnot(0, 1)]))
        np.testing.assert_allclose(u_map, u_circ, atol=1e-15)

    def test_append_composition(self):
        rng = random.Random(3)
        for _ in range(40):
            q = rng.randint(2, 4)
            m = random_invertible_map(rng, q)
            cn = zx.Cnot(*rng.sample(range(q), 2))
            left = parity_unitary(zx.append_cnot(m, cn))
            right = sim.circuit_unitary(zx.Circuit(q, [cn])) @ parity_unitary(m)
            assert np.linalg.norm(left - right) < 1e-12


class TestRegionsUnitary:
    def test_unknown_region_rejected(self):
        with pytest.raises(TypeError, match="unknown region"):
            regions_unitary([zx.identity_map(2), zx.Cnot(0, 1)])

    def test_unknown_first_region_rejected(self):
        with pytest.raises(TypeError, match="unknown region"):
            regions_unitary([zx.Cnot(0, 1), zx.identity_map(2)])

    def test_parity_map_of_another_size_rejected(self):
        with pytest.raises(ValueError, match="parity map has 3 qubits, the list 2"):
            regions_unitary([zx.identity_map(2), zx.identity_map(3)])

    def test_gadget_run_of_another_size_rejected(self):
        run = zx.ZXPolynomial(3, (zx.PhaseGadget.z([2], PH(1, 4)),))
        with pytest.raises(ValueError, match="gadget run has 3 qubits, the list 2"):
            regions_unitary([zx.identity_map(2), run, zx.identity_map(2)])


class TestGlobalPhaseComparison:
    def test_equal(self):
        u = gadget_unitary(zx.PhaseGadget.z([0, 1], PH(1, 4)), 2)
        assert sim.equal_up_to_global_phase(u, u, 1e-12)

    def test_pure_phase(self):
        u = gadget_unitary(zx.PhaseGadget.x([0], PH(3, 4)), 1)
        assert sim.equal_up_to_global_phase(u, np.exp(1j * pi / 7) * u, 1e-12)

    def test_different(self):
        cnot = sim.circuit_unitary(zx.Circuit(2, [zx.Cnot(0, 1)]))
        assert not sim.equal_up_to_global_phase(cnot, np.eye(4, dtype=complex), 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim.equal_up_to_global_phase(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


def _pipeline(poly, arch, mode):
    return zx.lower_regions(zx.synthesize(zx.simplify(poly), arch, mode), arch)


def _mutants(circuit, rng):
    """One rotation's phase changed, one CNOT dropped, one CNOT reversed."""
    gates = circuit.gates
    rotations = [i for i, g in enumerate(gates) if not isinstance(g, zx.Cnot)]
    cnots = [i for i, g in enumerate(gates) if isinstance(g, zx.Cnot)]
    out = []
    if rotations:
        i = rng.choice(rotations)
        changed = replace(gates[i], phase=gates[i].phase + PH(1, 4))
        out.append(zx.Circuit(circuit.num_qubits, gates[:i] + (changed,) + gates[i + 1:]))
    if cnots:
        i = rng.choice(cnots)
        out.append(zx.Circuit(circuit.num_qubits, gates[:i] + gates[i + 1:]))
        flipped = zx.Cnot(gates[i].target, gates[i].control)
        out.append(zx.Circuit(circuit.num_qubits, gates[:i] + (flipped,) + gates[i + 1:]))
    return out


def _cnot_as_gadgets(q):
    """CNOT(0,1) as Z/X gadgets at +-pi/2: H on wire 1, CZ(0,1), H on wire 1."""
    z, x, quarter = zx.PhaseGadget.z, zx.PhaseGadget.x, PH(1, 2)
    hadamard = (z([1], quarter), x([1], quarter), z([1], quarter))
    cz = (z([0], quarter), z([1], quarter), z([0, 1], -quarter))
    return zx.ZXPolynomial(q, hadamard + cz + hadamard)


class TestInvalidPolynomial:
    """Neither check can be handed a polynomial with a leg-less gadget or an
    out-of-range leg, so neither drops such legs or fails on them: the
    polynomial is refused when it is built."""

    @pytest.mark.parametrize("basis, legs, message", [
        ("Z", 0b100001, "^invalid polynomial: gadget 0: leg 5 out of range for 2 qubits$"),
        ("Z", 0, "^a phase gadget needs at least one leg, got legs mask 0$"),
        ("X", 0b100, "^invalid polynomial: gadget 0: leg 2 out of range for 2 qubits$"),
    ], ids=["leg-out-of-range", "no-legs", "x-leg-out-of-range"])
    def test_rejected(self, basis, legs, message):
        with pytest.raises(ValueError, match=message):
            zx.ZXPolynomial(2, (zx.PhaseGadget(basis, legs, PH(1, 4)),))


class TestVerify:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.sampled_from(sorted(ARCH_FAMILIES)),
           st.sampled_from(["fast", "gauss"]), st.integers(0, 10), st.integers(0, 10**6))
    def test_every_pipeline_output_is_certified(self, q, kind, mode, n, seed):
        arch = ARCH_FAMILIES[kind](q)
        poly = zx.random_poly(q, n, min(4, q), seed)
        assert sim.verify(poly, _pipeline(poly, arch, mode), arch) == ("certificate", True, None)

    def test_certified_implies_oracle_equal(self):
        rng = random.Random(13)
        certified = differing = 0
        for _ in range(30):
            q = rng.randint(2, 5)
            arch = ARCH_FAMILIES[rng.choice(sorted(ARCH_FAMILIES))](q)
            poly = zx.random_poly(q, rng.randint(1, 12), min(4, q), rng.randrange(10**6))
            output = _pipeline(poly, arch, rng.choice(["fast", "gauss"]))
            for circuit in [output] + _mutants(output, rng):
                method, ok, _ = sim.verify(poly, circuit, arch)
                same = sim.equal_up_to_global_phase(
                    sim.poly_unitary(poly), sim.circuit_unitary(circuit))
                assert method in ("certificate", "oracle")
                assert ok == same and (method != "certificate" or same)
                certified += method == "certificate"
                differing += not same
        assert certified >= 30 and differing > 0

    def test_non_edge_cnot(self):
        poly = zx.ZXPolynomial(3, ())
        circuit = zx.Circuit(3, [zx.Cnot(0, 2), zx.Cnot(0, 2)])
        assert sim.verify(poly, circuit, zx.line(3)) == ("edges", False, zx.Cnot(0, 2))
        assert sim.verify(poly, circuit) == ("certificate", True, None)

    @pytest.mark.parametrize("gates", [[], [zx.Cnot(999_999, 0), zx.Cnot(999_999, 0)]],
                             ids=["empty", "far-pair"])
    def test_memory_follows_the_touched_wires(self, gates):
        # a wire no CNOT touches keeps its unit row and column unstored, so a
        # million-qubit register costs what its gates do, not a row per wire
        start = time.perf_counter()
        assert sim.verify(zx.ZXPolynomial(10**6, ()), zx.Circuit(10**6, gates)) == (
            "certificate", True, None)
        assert time.perf_counter() - start < 1

    def test_qubit_counts_must_match(self):
        with pytest.raises(ValueError, match="polynomial has 2 qubits, circuit has 3"):
            sim.verify(zx.ZXPolynomial(2, ()), zx.Circuit(3, []))
        with pytest.raises(ValueError, match="polynomial has 2 qubits, architecture line:3 has 3"):
            sim.verify(zx.ZXPolynomial(2, ()), zx.Circuit(2, []), zx.line(3))

    def test_uncertified_falls_back_to_the_oracle(self):
        # the gadgets equal the CNOT, but the CNOT map is not the identity
        method, ok, residual = sim.verify(_cnot_as_gadgets(2), zx.Circuit(2, [zx.Cnot(0, 1)]))
        assert (method, ok) == ("oracle", True) and residual < 1e-9
        assert sim.verify(_cnot_as_gadgets(13), zx.Circuit(13, [zx.Cnot(0, 1)])) == (
            "unproven", False, None)

    @pytest.mark.parametrize("last, code, verdict", [("pi/2", 0, "PASS"), ("pi/4", 1, "FAIL")])
    def test_euler_angles_only_the_oracle_proves(self, tmp_path, capsys, last, code, verdict):
        # Z X Z and X Z X at pi/2 are both the Hadamard up to a global phase;
        # no CNOT-map certificate relates them, so the oracle decides
        z, x = zx.PhaseGadget.z, zx.PhaseGadget.x
        poly_path, circ_path = tmp_path / "p.json", tmp_path / "c.qasm"
        poly_path.write_text(zx.ZXPolynomial(1, (z([0], PH(1, 2)), x([0], PH(1, 2)),
                                                 z([0], PH(1, 2)))).to_json())
        circ_path.write_text("OPENQASM 2.0;\nqreg q[1];\nrx(pi/2) q[0];\nrz(pi/2) q[0];\n"
                             f"rx({last}) q[0];\n")
        assert main(["verify", "--poly", str(poly_path), "--circuit", str(circ_path)]) == code
        assert capsys.readouterr().out.startswith(f"{verdict} method=oracle residual=")

    def test_cli_certifies_above_the_oracle_limit(self, tmp_path, capsys):
        poly_path, circ_path = tmp_path / "p.json", tmp_path / "c.qasm"
        poly_path.write_text(zx.random_poly(16, 24, 4, seed=1).to_json())
        assert main(["synth", "--in", str(poly_path), "--arch", "grid:4x4",
                     "--out", str(circ_path)]) == 0
        assert main(["verify", "--poly", str(poly_path), "--circuit", str(circ_path)]) == 0
        assert capsys.readouterr().out == "PASS method=certificate\n"
        circuit = zx.from_qasm(circ_path.read_text())
        i = next(i for i, g in enumerate(circuit.gates) if isinstance(g, zx.Rz))
        changed = replace(circuit.gates[i], phase=circuit.gates[i].phase + PH(1, 4))
        circuit = replace(circuit, gates=circuit.gates[:i] + (changed,) + circuit.gates[i + 1:])
        circ_path.write_text(zx.to_qasm(circuit))
        assert main(["verify", "--poly", str(poly_path), "--circuit", str(circ_path)]) == 1
        assert capsys.readouterr().out.startswith("UNPROVEN")
