"""Gadget emitters, region lowering, CNOT metrics, QASM round-trips."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

import zxpoly as zx
from zxpoly import sim
from zxpoly.arch import rooted_tree
from conftest import random_gadget, random_invertible_map, random_zx_poly

PH = zx.Phase


def _edge_legal(circuit, arch):
    return all(
        arch.is_edge(g.control, g.target)
        for g in circuit.gates
        if isinstance(g, zx.Cnot)
    )


class TestNaiveEmitter:
    def test_single_leg_rotation_only(self):
        circ = zx.naive_gadget_circuit(zx.PhaseGadget.z([1], PH(1, 4)), zx.line(3))
        assert circ.gates == [zx.Rz(PH(1, 4), 1)]
        circ = zx.naive_gadget_circuit(zx.PhaseGadget.x([2], PH(1, 2)), zx.line(3))
        assert circ.gates == [zx.Rx(PH(1, 2), 2)]

    def test_adjacent_ladder(self):
        circ = zx.naive_gadget_circuit(zx.PhaseGadget.z([0, 1], PH(1, 4)), zx.line(2))
        assert circ.gates == [zx.Cnot(0, 1), zx.Rz(PH(1, 4), 1), zx.Cnot(0, 1)]
        assert zx.cnot_count(circ) == 2

    def test_routed_gap_costs_eight(self):
        g = zx.PhaseGadget.z([0, 2], PH(1, 4))
        circ = zx.naive_gadget_circuit(g, zx.line(3))
        assert zx.cnot_count(circ) == 8
        assert _edge_legal(circ, zx.line(3))
        assert np.linalg.norm(sim.circuit_unitary(circ) - sim.gadget_unitary(g, 3)) < 1e-12


class TestSteinerEmitter:
    def test_relay_trace(self):
        # phase lands on x0 xor x2 via the middle wire, six CNOTs total
        g = zx.PhaseGadget.z([0, 2], PH(1, 4))
        circ = zx.steiner_gadget_circuit(g, zx.line(3))
        assert circ.gates == [
            zx.Cnot(1, 2), zx.Cnot(0, 1), zx.Cnot(1, 2),
            zx.Rz(PH(1, 4), 2),
            zx.Cnot(1, 2), zx.Cnot(0, 1), zx.Cnot(1, 2),
        ]
        assert np.linalg.norm(sim.circuit_unitary(circ) - sim.gadget_unitary(g, 3)) < 1e-12

    def test_adjacent_matches_naive(self):
        g = zx.PhaseGadget.z([1, 2], PH(3, 4))
        arch = zx.line(3)
        assert zx.steiner_gadget_circuit(g, arch).gates == zx.naive_gadget_circuit(g, arch).gates

    def test_single_leg(self):
        circ = zx.steiner_gadget_circuit(zx.PhaseGadget.x([0], PH(1, 8)), zx.line(2))
        assert circ.gates == [zx.Rx(PH(1, 8), 0)]


def _recursive_gadget_gates(gadget, arch):
    """Reference tree-placed emitter: a recursive walk over `rooted_tree`
    of the gadget's terminal tree, rooted at the leg of least eccentricity
    (ties to the highest leg)."""
    legs = gadget.leg_list()
    root, up = legs[0], []
    if len(legs) > 1:
        tree_edges, _ = arch.terminal_tree(legs)
        best = None
        for leg in legs:
            parent, order = rooted_tree(tree_edges, leg)
            depth = {leg: 0}
            for v in order[1:]:
                depth[v] = depth[parent[v]] + 1
            if best is None or max(depth.values()) <= best[0]:
                best = (max(depth.values()), leg)
        root = best[1]
        parent, order = rooted_tree(tree_edges, root)
        children = {v: [] for v in order}
        for v in order[1:]:
            children[parent[v]].append(v)

        def edge_cnot(v):
            return zx.Cnot(parent[v], v) if gadget.basis == "X" else zx.Cnot(v, parent[v])

        def emit(v):
            gates = [] if gadget.has_leg(v) else [edge_cnot(v)]
            for child in sorted(children[v]):
                gates.extend(emit(child))
            return gates + [edge_cnot(v)]

        up = [gate for child in sorted(children[root]) for gate in emit(child)]
    rotation = (zx.Rz if gadget.basis == "Z" else zx.Rx)(gadget.phase, root)
    return up + [rotation] + up[::-1]


class TestSteinerLadderReference:
    @pytest.mark.parametrize("arch", [zx.line(5), zx.grid(2, 3), zx.grid(3, 3), zx.circle(6)],
                             ids=lambda a: a.name)
    def test_matches_recursive_walk(self, arch):
        for legs in range(1, 1 << arch.num_qubits):
            for basis in "ZX":
                g = zx.PhaseGadget(basis, legs, PH(1, 4))
                assert zx.steiner_gadget_circuit(g, arch).gates == _recursive_gadget_gates(
                    g, arch), (arch.name, basis, bin(legs))


class TestEmitterProperties:
    def test_unitary_and_edges_300(self):
        rng = random.Random(31)
        archs = [zx.line(3), zx.line(5), zx.circle(4), zx.circle(5),
                 zx.grid(2, 2), zx.grid(2, 3), zx.complete(4), zx.complete(5)]
        for _ in range(300):
            arch = archs[rng.randrange(len(archs))]
            q = arch.num_qubits
            g = random_gadget(rng, q)
            for emit in (zx.naive_gadget_circuit, zx.steiner_gadget_circuit):
                circ = emit(g, arch)
                assert _edge_legal(circ, arch)
                assert np.linalg.norm(sim.circuit_unitary(circ) - sim.gadget_unitary(g, q)) < 1e-12

    def test_steiner_beats_naive_on_line(self):
        rng = random.Random(32)
        for _ in range(60):
            q = rng.randint(3, 6)
            arch = zx.line(q)
            legs = rng.sample(range(q), rng.randint(3, q))
            g = zx.PhaseGadget.z(legs, PH(1, 4))
            steiner = zx.cnot_count(zx.steiner_gadget_circuit(g, arch))
            naive = zx.cnot_count(zx.naive_gadget_circuit(g, arch))
            assert steiner <= naive


class TestLowerRegions:
    def test_single_identity_region(self):
        regions = [zx.identity_map(2)]
        assert zx.lower_regions(regions, zx.line(2)).gates == []

    def test_identity_flanked_gadget(self):
        g = zx.PhaseGadget.z([0, 1], PH(1, 4))
        regions = [
            zx.identity_map(2),
            zx.ZXPolynomial(2, (g,)),
            zx.identity_map(2),
        ]
        lowered = zx.lower_regions(regions, zx.line(2))
        assert lowered.gates == zx.steiner_gadget_circuit(g, zx.line(2)).gates

    def test_full_pipeline_unitary(self):
        rng = random.Random(33)
        for _ in range(20):
            q = rng.randint(2, 5)
            arch = [zx.line(q), zx.circle(q), zx.complete(q)][rng.randrange(3)]
            poly = random_zx_poly(rng, q, rng.randint(1, 10), min(4, q))
            regions = zx.synthesize(zx.simplify(poly), arch, "fast")
            lowered = zx.lower_regions(regions, arch)
            assert _edge_legal(lowered, arch)
            assert sim.equal_up_to_global_phase(
                sim.circuit_unitary(lowered), sim.poly_unitary(poly), 1e-9
            )

    def test_parity_region_lowering_replays(self):
        rng = random.Random(34)
        arch = zx.grid(2, 2)
        m = random_invertible_map(rng, 4)
        lowered = zx.lower_regions([m], arch)
        assert zx.from_cnots(4, lowered.gates) == m

    @pytest.mark.parametrize("rows", [(1, 2, 4), (1, 3, 4)])  # identity, one CNOT
    def test_parity_region_of_another_size_rejected(self, rows):
        with pytest.raises(ValueError, match="map size 3 does not match architecture line:2"):
            zx.lower_regions([zx.ParityMap(3, rows)], zx.line(2))

    def test_gadget_run_of_another_size_rejected(self):
        run = zx.ZXPolynomial(3, (zx.PhaseGadget.z([0, 1], PH(1, 4)),))
        with pytest.raises(ValueError, match="gadget region size does not match"):
            zx.lower_regions([zx.identity_map(2), run, zx.identity_map(2)], zx.line(2))

    def test_unknown_region_rejected(self):
        with pytest.raises(TypeError, match="unknown region"):
            zx.lower_regions([zx.identity_map(2), zx.Cnot(0, 1)], zx.line(2))


@pytest.mark.parametrize("module", ["circuit", "sim"])
def test_lowering_and_checking_sit_below_synth(module):
    # the region list is plain maps and runs, so neither module needs the optimizer
    path = Path(zx.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name in (".synth", "zxpoly.synth")}, imported


class TestMetrics:
    def test_cnot_count(self):
        assert zx.cnot_count(zx.Circuit(2)) == 0
        circ = zx.Circuit(2, [zx.Cnot(0, 1), zx.Rz(PH(1, 4), 0), zx.Cnot(1, 0)])
        assert zx.cnot_count(circ) == 2

    def test_reduction(self):
        assert zx.reduction(100, 40) == pytest.approx(60.0)
        assert zx.reduction(100, 100) == pytest.approx(0.0)
        assert zx.reduction(100, 130) == pytest.approx(-30.0)

    def test_reduction_zero_baseline(self):
        with pytest.raises(ValueError):
            zx.reduction(0, 0)


class TestQasm:
    def test_header_and_gates(self):
        circ = zx.Circuit(3, [zx.Cnot(0, 1), zx.Rz(PH(1, 4), 2), zx.Rx(PH(1, 1), 0)])
        text = zx.to_qasm(circ)
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        assert lines[2] == "qreg q[3];"
        assert lines[3] == "cx q[0],q[1];"
        assert lines[4] == "rz(0.785398163397) q[2];"
        assert lines[5] == "rx(3.14159265359) q[0];"

    def test_round_trip(self):
        rng = random.Random(35)
        for _ in range(30):
            q = rng.randint(1, 6)
            gates = []
            for _ in range(rng.randint(0, 20)):
                kind = rng.randrange(3)
                if kind == 0 and q >= 2:
                    gates.append(zx.Cnot(*rng.sample(range(q), 2)))
                elif kind == 1:
                    gates.append(zx.Rz(PH(rng.randint(0, 63), 32), rng.randrange(q)))
                else:
                    gates.append(zx.Rx(PH(rng.randint(0, 63), 32), rng.randrange(q)))
            circ = zx.Circuit(q, gates)
            assert zx.from_qasm(zx.to_qasm(circ)) == circ

    def test_unsupported_line_rejected(self):
        with pytest.raises(ValueError):
            zx.from_qasm('OPENQASM 2.0;\nqreg q[1];\nh q[0];\n')

    def test_pi_form_angles(self):
        text = "OPENQASM 2.0;\nqreg q[2];\n{}\n"
        circ = zx.from_qasm(text.format("rz(pi/4) q[0];"))
        assert circ.gates == [zx.Rz(PH(1, 4), 0)]
        assert zx.from_qasm(zx.to_qasm(circ)) == circ
        for angle, phase in [("pi", PH(1)), ("-pi/2", PH(-1, 2)), ("3*pi/4", PH(3, 4)),
                             ("pi*0.25", PH(1, 4)), (" +pi / 8 ", PH(1, 8)),
                             ("0.785398163397", PH(1, 4))]:
            gates = zx.from_qasm(text.format(f"rx({angle}) q[1];")).gates
            assert gates == [zx.Rx(phase, 1)], angle

    @pytest.mark.parametrize("angle", ["tau", "pi*pi", "1/pi", "pi/0", "pi**2", "pi^2",
                                       "2-pi", "pi/", "", "-", "sin(pi)", "1e400"])
    def test_other_angle_tokens_rejected(self, angle):
        with pytest.raises(ValueError, match="unsupported QASM line"):
            zx.from_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n")

    def test_missing_qreg_rejected(self):
        with pytest.raises(ValueError):
            zx.from_qasm("OPENQASM 2.0;\n")

    def test_second_qreg_rejected(self):
        with pytest.raises(ValueError, match="second qreg"):
            zx.from_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\n")


class TestCircuitJson:
    def test_round_trip(self):
        circ = zx.Circuit(2, [zx.Cnot(1, 0), zx.Rx(PH(5, 8), 1)])
        assert zx.circuit_from_json(zx.circuit_to_json(circ)) == circ

    def test_format(self):
        circ = zx.Circuit(2, [zx.Cnot(0, 1), zx.Rz(PH(1, 2), 0)])
        import json

        data = json.loads(zx.circuit_to_json(circ))
        assert data == {
            "qubits": 2,
            "gates": [
                {"gate": "cx", "control": 0, "target": 1},
                {"gate": "rz", "phase": "1/2", "qubit": 0},
            ],
        }
