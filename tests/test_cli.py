"""CLI subcommands, the package exports and the benchmark harness contract."""

import csv
import gc
import io
import json
import weakref
from dataclasses import replace

import pytest

import zxpoly as zx
from zxpoly import bench
from zxpoly.bench import CSV_HEADER, records_to_csv, run_bench
from zxpoly.cli import main


PH = zx.Phase


def run_cli(*args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_random_to_file(self, tmp_path):
        out = tmp_path / "poly.json"
        assert run_cli("generate", "--qubits", 4, "--gadgets", 10, "--max-legs", 4,
                       "--seed", 7, "--out", out) == 0
        poly = zx.ZXPolynomial.from_json(out.read_text())
        assert poly == zx.random_poly(4, 10, 4, seed=7)

    def test_maxcut(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run_cli("generate", "--maxcut", "--vertices", 4, "--p-edge", 0.8,
                       "--layers", 2, "--seed", 1, "--out", out) == 0
        poly = zx.ZXPolynomial.from_json(out.read_text())
        assert poly == zx.maxcut_qaoa(4, 0.8, 2, seed=1)

    @pytest.mark.parametrize("qubits", [0, -1])
    def test_no_qubits_names_the_qubit_count(self, capsys, qubits):
        assert run_cli("generate", "--qubits", qubits) == 2
        assert capsys.readouterr().err == f"error: num_qubits must be at least 1, got {qubits}\n"


class TestSimplify:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        poly = zx.ZXPolynomial(1, (
            zx.PhaseGadget.z([0], zx.Phase(1, 4)),
            zx.PhaseGadget.z([0], zx.Phase(7, 4)),
        ))
        src.write_text(poly.to_json())
        assert run_cli("simplify", "--in", src, "--out", dst) == 0
        assert len(zx.ZXPolynomial.from_json(dst.read_text())) == 0


class TestSynthAndVerify:
    @pytest.mark.parametrize("fmt,suffix", [("qasm", "qasm"), ("json", "json")])
    def test_synth_then_verify(self, tmp_path, fmt, suffix):
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / f"circ.{suffix}"
        poly_path.write_text(zx.random_poly(4, 8, 4, seed=3).to_json())
        assert run_cli("synth", "--in", poly_path, "--arch", "line:4",
                       "--mode", "fast", "--format", fmt, "--out", circ_path) == 0
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path,
                       "--tol", 1e-9) == 0

    def test_simplification_cannot_be_turned_off(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(zx.random_poly(4, 8, 4, seed=3).to_json())
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--in", poly_path, "--arch", "line:4", "--no-simplify")
        assert exc.value.code == 2

    def test_gauss_mode(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / "circ.qasm"
        poly_path.write_text(zx.random_poly(4, 6, 4, seed=4).to_json())
        assert run_cli("synth", "--in", poly_path, "--arch", "grid:2x2",
                       "--mode", "gauss", "--out", circ_path) == 0
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path) == 0

    def test_verify_checks_edges_of_the_given_arch(self, tmp_path, capsys):
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / "circ.qasm"
        graph_path = tmp_path / "line4.json"
        poly_path.write_text(zx.random_poly(4, 8, 4, seed=3).to_json())
        graph_path.write_text(json.dumps({"qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        assert run_cli("synth", "--in", poly_path, "--arch", "complete:4",
                       "--out", circ_path) == 0
        off_line = next(g for g in zx.from_qasm(circ_path.read_text()).gates
                        if isinstance(g, zx.Cnot) and abs(g.control - g.target) > 1)
        capsys.readouterr()
        for arch in ("complete:4", None):
            extra = () if arch is None else ("--arch", arch)
            assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path, *extra) == 0
            assert capsys.readouterr().out == "PASS method=certificate\n"
        for arch in ("line:4", graph_path):
            assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path,
                           "--arch", arch) == 1
            assert capsys.readouterr().out == (
                f"FAIL method=edges cx={off_line.control},{off_line.target}\n")
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path,
                       "--arch", "line:5") == 2
        assert "architecture line:5 has 5" in capsys.readouterr().err

    def test_synth_writes_no_unproven_circuit(self, tmp_path, monkeypatch, capsys):
        lower_regions = zx.circuit.lower_regions

        def drop_last_cnot(regions, arch):
            circuit = lower_regions(regions, arch)
            last = max(i for i, g in enumerate(circuit.gates) if isinstance(g, zx.Cnot))
            return replace(circuit, gates=circuit.gates[:last] + circuit.gates[last + 1:])

        monkeypatch.setattr(zx.circuit, "lower_regions", drop_last_cnot)
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / "circ.qasm"
        poly_path.write_text(zx.random_poly(4, 8, 4, seed=3).to_json())
        assert run_cli("synth", "--in", poly_path, "--arch", "line:4",
                       "--out", circ_path) == 1
        assert "(method=oracle)" in capsys.readouterr().err
        assert not circ_path.exists()

    def test_verify_fails_on_wrong_circuit(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / "circ.qasm"
        poly_path.write_text(zx.random_poly(3, 5, 3, seed=5).to_json())
        wrong = zx.Circuit(3, [zx.Cnot(0, 1)])
        circ_path.write_text(zx.to_qasm(wrong))
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path) == 1

    def test_verify_gates_on_the_printed_residual(self, tmp_path, capsys):
        # the phases differ by pi/10000 on two of the four diagonal entries:
        # the largest entry error is below tol, the Frobenius residual above
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / "circ.json"
        poly_path.write_text(zx.ZXPolynomial(2, (zx.PhaseGadget.z([0], PH(1, 4)),)).to_json())
        circ_path.write_text(zx.circuit_to_json(zx.Circuit(2, [zx.Rz(PH(2501, 10000), 0)])))
        tol = 3.8e-4
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path,
                       "--tol", tol) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL")
        assert float(out.split("residual=")[1].split()[0]) >= tol

    def test_verify_reads_pi_form_qasm(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / "circ.qasm"
        poly_path.write_text(zx.ZXPolynomial(2, (zx.PhaseGadget.z([0, 1], PH(1, 4)),)).to_json())
        circ_path.write_text("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
                             "cx q[0],q[1];\nrz(pi/4) q[1];\ncx q[0],q[1];\n")
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path,
                       "--tol", 1e-9) == 0

    def test_arch_size_mismatch(self, tmp_path):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(zx.random_poly(3, 5, 3, seed=6).to_json())
        assert run_cli("synth", "--in", poly_path, "--arch", "line:5",
                       "--out", tmp_path / "c.qasm") == 2

    def test_arch_size_mismatch_names_both_counts(self, tmp_path, capsys):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(zx.random_poly(3, 5, 3, seed=6).to_json())
        assert run_cli("synth", "--in", poly_path, "--arch", "line:5",
                       "--out", tmp_path / "c.qasm") == 2
        assert "polynomial has 3 qubits, architecture line:5 has 5" in capsys.readouterr().err

    def test_non_positive_grid_is_an_error(self, tmp_path, capsys):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(zx.random_poly(1, 3, 1, seed=2).to_json())
        assert run_cli("synth", "--in", poly_path, "--arch", "grid:-1x-1",
                       "--out", tmp_path / "c.qasm") == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_arch_file(self, tmp_path):
        arch_path = tmp_path / "arch.json"
        graph = json.dumps({"qubits": 3, "edges": [[0, 1], [1, 2]]})
        arch_path.write_text(graph)
        poly_path = tmp_path / "poly.json"
        circ_path = tmp_path / "circ.qasm"
        poly_path.write_text(zx.random_poly(3, 4, 3, seed=7).to_json())
        for arch in (arch_path, graph):  # a file, or the same object inline
            assert run_cli("synth", "--in", poly_path, "--arch", arch, "--out", circ_path) == 0
            assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path) == 0

    def test_bad_input_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("simplify", "--in", bad, "--out", tmp_path / "o.json") == 2
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(zx.random_poly(2, 3, 2, seed=1).to_json())
        for arch in ('{"qubits": 2}', '{"qubits": 2, "edges": [5]}',
                     '{"qubits": 2.7, "edges": [[0, 1]]}', '{"qubits": true, "edges": []}',
                     '{"qubits": "2", "edges": [[0, 1]]}', '{"qubits": 2, "edges": [[0, true]]}'):
            capsys.readouterr()
            assert run_cli("synth", "--in", poly_path, "--arch", arch,
                           "--out", tmp_path / "c.qasm") == 2, arch
            assert "error:" in capsys.readouterr().err, arch
        for arch, edge in (('{"qubits": 3, "edges": [[0, 1, 2]]}', "[0, 1, 2]"),
                           ('{"qubits": 2, "edges": [[0]]}', "[0]"),
                           ('{"qubits": 2, "edges": [5]}', "5")):
            capsys.readouterr()
            assert run_cli("synth", "--in", poly_path, "--arch", arch,
                           "--out", tmp_path / "c.qasm") == 2, arch
            assert (f"error: malformed architecture JSON: edge {edge} does not have two vertices"
                    in capsys.readouterr().err), arch
        zero_denominator = tmp_path / "zero_denominator.json"
        zero_denominator.write_text(json.dumps(
            {"qubits": 2, "gadgets": [{"basis": "Z", "legs": [0, 1], "phase": "1/0"}]}))
        capsys.readouterr()
        assert run_cli("simplify", "--in", zero_denominator, "--out", tmp_path / "o.json") == 2
        assert "error:" in capsys.readouterr().err
        assert run_cli("synth", "--in", zero_denominator, "--arch", "line:2",
                       "--out", tmp_path / "c.qasm") == 2
        assert "error:" in capsys.readouterr().err
        rewritten = tmp_path / "rewritten_legs.json"
        for legs in ([0, 0], [1.7], [True]):
            rewritten.write_text(json.dumps(
                {"qubits": 2, "gadgets": [{"basis": "Z", "legs": legs, "phase": "1/4"}]}))
            assert run_cli("simplify", "--in", rewritten, "--out", tmp_path / "o.json") == 2, legs
            assert "error:" in capsys.readouterr().err, legs
            assert run_cli("synth", "--in", rewritten, "--arch", "line:2",
                           "--out", tmp_path / "c.qasm") == 2, legs
            assert "error:" in capsys.readouterr().err, legs
        circ_path = tmp_path / "circ.json"
        rz_off_register = {"gate": "rz", "phase": "1/4", "qubit": -1}
        rz_zero_denominator = {"gate": "rz", "phase": "1/0", "qubit": 0}
        cx_fractional_control = {"gate": "cx", "control": 0.7, "target": 1}
        rz_bool_qubit = {"gate": "rz", "phase": "1/4", "qubit": True}
        for circuit in ({"qubits": 2, "gates": [{"gate": "cx"}]}, [],
                        {"qubits": 2, "gates": [rz_off_register]},
                        {"qubits": 2, "gates": [rz_zero_denominator]},
                        {"qubits": 2, "gates": [cx_fractional_control]},
                        {"qubits": 2, "gates": [rz_bool_qubit]},
                        {"qubits": 2.0, "gates": []}):
            circ_path.write_text(json.dumps(circuit))
            assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path) == 2, circuit
            assert "error:" in capsys.readouterr().err, circuit
        circ_path.write_text(zx.circuit_to_json(zx.Circuit(2, [])))
        for tol in ("nan", "inf", "0", "-1e-9"):
            assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path,
                           f"--tol={tol}") == 2, tol
            assert "error:" in capsys.readouterr().err, tol

    @pytest.mark.parametrize("text", ["[[0, 1]]", "[1, 2]", "3", "null", "true", '"line:4"',
                                      json.dumps([[0, 1]] * 50000)],
                             ids=["edge-list", "list", "number", "null", "bool", "string", "400kb"])
    def test_arch_file_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        arch_path, poly_path = tmp_path / "arch.json", tmp_path / "poly.json"
        arch_path.write_text(text)
        poly_path.write_text(zx.random_poly(2, 3, 2, seed=1).to_json())
        for args in (("synth", "--in", poly_path, "--arch", arch_path, "--out", tmp_path / "c.qasm"),
                     ("verify", "--poly", poly_path, "--circuit", poly_path, "--arch", arch_path)):
            assert run_cli(*args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith("error: malformed architecture JSON: expected an object, got "), err
            assert err.count("\n") == 1 and len(err) < 100, err
        assert not (tmp_path / "c.qasm").exists()

    @pytest.mark.parametrize("reader", ["synth-in", "verify-poly", "verify-circuit", "arch-file",
                                        "bench-grid"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, reader):
        # deeper than the recursion limit, the JSON decoder raises RecursionError
        nested, poly_path, circ_path = tmp_path / "nested.json", tmp_path / "p.json", tmp_path / "c.json"
        nested.write_text('{"edges": ' + "[" * 200000 + "]" * 200000 + "}")
        poly_path.write_text(zx.ZXPolynomial(2, ()).to_json())
        circ_path.write_text(zx.circuit_to_json(zx.Circuit(2, [])))
        args = {"synth-in": ("synth", "--in", nested, "--arch", "line:2"),
                "verify-poly": ("verify", "--poly", nested, "--circuit", circ_path),
                "verify-circuit": ("verify", "--poly", poly_path, "--circuit", nested),
                "arch-file": ("synth", "--in", poly_path, "--arch", nested),
                "bench-grid": ("bench", "--grid", nested)}[reader]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestAsciiNumbers:
    """Every number read from text is ASCII without underscores: int(), float()
    and Fraction() alone read "1_0" as 10 and "\u0663" (Arabic-Indic 3) as 3."""

    @pytest.mark.parametrize("args", [
        ("generate", "--qubits", "1_0"), ("generate", "--seed", "\u0663"),
        ("verify", "--poly", "p.json", "--circuit", "c.qasm", "--tol", "1_0e-9"),
    ], ids=["qubits-underscore", "seed-arabic-indic", "tol-underscore"])
    def test_option_exits_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args)
        assert exc.value.code == 2
        assert f" value: {args[-1]!r}" in capsys.readouterr().err

    def test_ascii_options_still_read(self, tmp_path):
        out = tmp_path / "poly.json"
        assert run_cli("generate", "--qubits", "+3", "--gadgets", "2", "--max-legs", "2",
                       "--seed", "-1", "--out", out) == 0
        assert zx.ZXPolynomial.from_json(out.read_text()) == zx.random_poly(3, 2, 2, seed=-1)

    @pytest.mark.parametrize("phase", ["1_0/4", "1/4_0", "\u0663/4"])
    def test_phase_exits_2(self, tmp_path, capsys, phase):
        poly_path, circ_path = tmp_path / "p.json", tmp_path / "c.json"
        gadget = {"basis": "Z", "legs": [0], "phase": phase}
        poly_path.write_text(json.dumps({"qubits": 2, "gadgets": [gadget]}))
        assert run_cli("simplify", "--in", poly_path) == 2
        assert capsys.readouterr().err == (f"error: malformed polynomial JSON: phase {phase!r} "
                                           "is not written in ASCII digits\n")
        poly_path.write_text(zx.ZXPolynomial(2, ()).to_json())
        circ_path.write_text(json.dumps(
            {"qubits": 2, "gates": [{"gate": "rz", "phase": phase, "qubit": 0}]}))
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path) == 2
        assert f"phase {phase!r} is not written in ASCII digits\n" in capsys.readouterr().err

    @pytest.mark.parametrize("gate, message", [
        ({"gate": "rz", "phase": "1_0/4", "qubit": 0}, "phase '1_0/4' is not written in ASCII digits"),
        ({"gate": "ccx", "qubit": 0}, "unknown gate kind 'ccx'"),
    ], ids=["phase", "gate-kind"])
    def test_circuit_json_error_names_the_reader(self, tmp_path, capsys, gate, message):
        poly_path, circ_path = tmp_path / "p.json", tmp_path / "c.json"
        poly_path.write_text(zx.ZXPolynomial(2, ()).to_json())
        circ_path.write_text(json.dumps({"qubits": 2, "gates": [gate]}))
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path) == 2
        assert capsys.readouterr().err == f"error: malformed circuit JSON: {message}\n"

    @pytest.mark.parametrize("line", ["qreg q[\u0663];", "cx q[\u0660],q[1];",
                                      "rz(pi/\u0664) q[0];", "rx(pi) q[\u0661];"],
                             ids=["qreg", "cx", "angle", "rotation-qubit"])
    def test_qasm_exits_2(self, tmp_path, capsys, line):
        poly_path, circ_path = tmp_path / "p.json", tmp_path / "c.qasm"
        poly_path.write_text(zx.ZXPolynomial(2, ()).to_json())
        qreg = "" if line.startswith("qreg") else "qreg q[2];\n"
        circ_path.write_text(f"OPENQASM 2.0;\n{qreg}{line}\n", encoding="utf-8")
        assert run_cli("verify", "--poly", poly_path, "--circuit", circ_path) == 2
        assert capsys.readouterr().err == f"error: unsupported QASM line: {line!r}\n"


class TestBench:
    GRID = {
        "kind": "random",
        "qubits": [3],
        "gadgets": [5, 8],
        "max_legs": 3,
        "architectures": ["line", "complete"],
        "algorithms": ["divide_fast", "naive"],
    }

    def test_record_counts_and_header(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(self.GRID))
        out = tmp_path / "results.csv"
        assert run_cli("bench", "--grid", grid_path, "--reps", 2, "--seed", 11,
                       "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        # 2 gadget counts x 2 architectures x 2 reps x 2 algorithms
        assert len(lines) == 1 + 16

    def test_naive_algorithm_zero_reduction(self):
        records, failures = run_bench(self.GRID, reps=1, base_seed=5)
        assert failures == 0
        for record in records:
            if record.algorithm == "naive":
                assert record.cx_out == record.cx_naive
            assert record.verified is True

    def test_unproven_row_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(bench.sim, "verify", lambda *args: ("unproven", False, None))
        records, failures = run_bench(self.GRID, reps=1, base_seed=5)
        assert failures == len(records) == 8
        for record in records:
            assert (record.verified, record.method, record.error) == (False, "unproven", "")

    def test_verification_cannot_be_turned_off(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(self.GRID))
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--grid", grid_path, "--reps", 1, "--no-verify")
        assert exc.value.code == 2

    def test_csv_deterministic_apart_from_time(self):
        a, _ = run_bench(self.GRID, reps=2, base_seed=3)
        b, _ = run_bench(self.GRID, reps=2, base_seed=3)

        col = CSV_HEADER.index("time_s")

        def strip_time(records):
            rows = csv.reader(io.StringIO(records_to_csv(records)))
            return [row[:col] + row[col + 1:] for row in rows]

        assert strip_time(a) == strip_time(b)

    def test_raising_instance_keeps_its_row(self, monkeypatch):
        def broken_synthesize(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench, "synthesize", broken_synthesize)
        records, failures = run_bench(self.GRID, reps=1, base_seed=5)
        assert len(records) == 8
        assert failures == 4
        rows = csv.DictReader(io.StringIO(records_to_csv(records)))
        for record, row in zip(records, rows, strict=True):
            if record.algorithm == "naive":
                assert record.error == "" and record.verified is True
                assert (row["verified"], row["method"], row["error"]) == (
                    "True", "certificate", "")
            else:
                assert record.error == "RuntimeError: boom"
                assert record.cx_out is None and record.verified is None
                assert (row["cx_out"], row["verified"], row["method"], row["error"]) == (
                    "", "", "", record.error)

    @pytest.mark.parametrize("grid", [
        {"kind": "random"},
        [{"kind": "random", "qubits": [3], "gadgets": [5]}],
        {"kind": "random", "qubits": [3], "gadgets": [5], "architectures": [5]},
        {"kind": "random", "qubits": [3], "gadgets": [5], "architectures": ["line", 5]},
        {"kind": "maxcut", "vertices": [4], "p_edges": ["0.5"], "layers": [1]},
        {"kind": "random", "qubits": [3], "gadgets": [5], "max_legs": None},
    ], ids=["missing-qubits", "top-level-list", "number-architecture",
            "late-number-architecture", "string-p-edge", "null-max-legs"])
    def test_malformed_grid_exits_2_before_running(self, tmp_path, capsys, monkeypatch, grid):
        ran = []
        monkeypatch.setattr(bench, "run_instance", lambda *args: ran.append(args))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert run_cli("bench", "--grid", grid_path, "--reps", 1,
                       "--out", tmp_path / "out.csv") == 2
        assert "error: malformed grid JSON" in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize("reps,grid", [
        (0, GRID),
        (-1, GRID),
        (1, dict(GRID, gadgets=[])),
        (1, dict(GRID, architectures=[])),
        (1, dict(GRID, algorithms=[])),
        (1, {"kind": "maxcut", "vertices": [4], "p_edges": [], "layers": [1]}),
    ], ids=["zero-reps", "negative-reps", "no-gadgets", "no-architectures",
            "no-algorithms", "no-p-edges"])
    def test_sweep_that_measures_nothing_exits_2(self, tmp_path, capsys, reps, grid):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "out.csv"
        assert run_cli("bench", "--grid", grid_path, "--reps", reps, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,message", [
        ({"kind": "random", "qubits": [4], "gadgets": [6], "architectures": ["line:5"],
          "algorithms": ["divide_fast", "naive"]},
         "architecture line:5 has 5 qubits, the grid point has 4"),
        ({"kind": "maxcut", "vertices": [6], "p_edges": [0.5], "layers": [1],
          "architectures": ["line:8"]},
         "architecture line:8 has 8 qubits, the grid point has 6"),
    ], ids=["random", "maxcut"])
    def test_architecture_of_another_size_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   grid, message):
        ran = []
        monkeypatch.setattr(bench, "run_instance", lambda *args: ran.append(args))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "out.csv"
        assert run_cli("bench", "--grid", grid_path, "--reps", 2, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and ran == []

    def test_each_point_gets_a_fresh_architecture_freed_when_done(self, monkeypatch):
        seen = []
        run_instance = bench.run_instance

        def spying(poly, arch, algorithm):
            gc.collect()
            assert [ref() for ref in seen if ref() is not None] in ([], [arch])
            if not seen or seen[-1]() is not arch:
                seen.append(weakref.ref(arch))
            return run_instance(poly, arch, algorithm)

        monkeypatch.setattr(bench, "run_instance", spying)
        run_bench(self.GRID, reps=2, base_seed=0)
        assert len(seen) == 4  # two gadget counts on two architectures

    def test_instance_that_cannot_be_generated_keeps_its_rows(self):
        # the default max_legs of 4 is out of range for 3 qubits, not for 5
        grid = {"kind": "random", "qubits": [5, 3], "gadgets": [4], "architectures": ["line"],
                "algorithms": ["divide_fast", "naive"]}
        records, failures = run_bench(grid, reps=1, base_seed=0)
        assert [(r.n_qubits, r.algorithm) for r in records] == [
            (5, "divide_fast"), (5, "naive"), (3, "divide_fast"), (3, "naive")]
        assert failures == 2
        for record in records[:2]:
            assert record.error == "" and record.verified is True and record.n_pgs == 4
        for record in records[2:]:
            assert record.error == "ValueError: max_legs must be in [1, 3], got 4"
            assert record.cx_out is None and record.verified is None
            assert (record.n_pgs, record.max_legs, record.architecture) == (4, 4, "line:3")

    def test_maxcut_instance_that_cannot_be_generated_keeps_its_row(self):
        grid = {"kind": "maxcut", "vertices": [1], "p_edges": [0.5], "layers": [1],
                "architectures": ["line"]}
        records, failures = run_bench(grid, reps=1, base_seed=0)
        assert failures == 1
        [record] = records
        assert record.error == "ValueError: need at least two vertices"
        assert (record.n_qubits, record.n_pgs, record.max_legs) == (1, None, 2)
        assert records_to_csv(records).splitlines()[1].startswith("1,,2,line:1,divide_fast,0,")

    def test_grid_architecture_requires_square(self):
        grid = dict(self.GRID, architectures=["grid"])
        with pytest.raises(ValueError):
            run_bench(grid, reps=1, base_seed=0)

    def test_square_is_not_an_architecture_name(self):
        grid = dict(self.GRID, qubits=[4], architectures=["square"])
        with pytest.raises(ValueError, match="^unknown architecture name 'square'$"):
            run_bench(grid, reps=1, base_seed=0)

    @pytest.mark.parametrize("grid,message", [
        ({"qubits": [4, 5], "gadgets": [6], "architectures": ["grid"]},
         "^grid architecture needs a square qubit count, got 5$"),
        ({"qubits": [4], "gadgets": [6], "architectures": ["line", "ring"]},
         "^unknown architecture name 'ring'$"),
        ({"qubits": [4, 0], "gadgets": [6], "architectures": ["line"]},
         "architecture needs at least one qubit"),
    ], ids=["grid-not-square", "unknown-name", "no-qubits"])
    def test_late_bad_architecture_fails_before_any_instance(self, monkeypatch, grid, message):
        ran = []
        run_instance = bench.run_instance

        def counting(*args):
            ran.append(args)
            return run_instance(*args)

        monkeypatch.setattr(bench, "run_instance", counting)
        with pytest.raises(ValueError, match=message):
            run_bench(grid, reps=2, base_seed=0)
        assert ran == []

    def test_maxcut_kind(self):
        grid = {
            "kind": "maxcut",
            "vertices": [4],
            "p_edges": [0.7],
            "layers": [1, 2],
            "architectures": ["complete"],
            "algorithms": ["divide_fast"],
        }
        records, failures = run_bench(grid, reps=2, base_seed=9)
        assert failures == 0
        assert len(records) == 4
        assert all(r.verified for r in records)


class TestPackage:
    def test_every_export_exists(self):
        namespace: dict = {}
        exec("from zxpoly import *", namespace)  # AttributeError on a dangling name
        assert set(zx.__all__) <= set(namespace)
        assert not {"gauss_cnots", "gadget_cost", "effect_parity"} & set(zx.__all__)
