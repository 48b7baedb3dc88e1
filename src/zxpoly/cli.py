"""Command-line front end.

Subcommands: generate, simplify, synth, verify, bench. Polynomials travel
as JSON; circuits as QASM 2.0 or gate-list JSON. `synth` checks its output
with `sim.verify` and writes only a proven circuit. Exit code 0 on success,
nonzero on any verification failure or error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import circuit as circ
from . import sim
from .arch import Architecture, build_architecture
from .bench import records_to_csv, run_bench
from .generators import maxcut_qaoa, random_poly
from .poly import ZXPolynomial, ascii_number
from .simplify import simplify as simplify_poly
from .synth import synthesize


def ascii_float(text: str) -> float:
    return ascii_number(text, float)


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_poly(path: str) -> ZXPolynomial:
    return ZXPolynomial.from_json(_read_text(path))


def _load_circuit(path: str) -> circ.Circuit:
    text = _read_text(path)
    if path.endswith(".qasm") or text.lstrip().startswith("OPENQASM"):
        return circ.from_qasm(text)
    return circ.circuit_from_json(text)


def _load_arch(spec: str) -> Architecture:
    if not spec.endswith(".json"):
        return build_architecture(spec)
    graph = json.loads(Path(spec).read_text())
    if isinstance(graph, str):  # build_architecture would read it as a descriptor
        raise ValueError("malformed architecture JSON: expected an object, got str")
    return build_architecture(graph)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.maxcut:
        poly = maxcut_qaoa(args.vertices, args.p_edge, args.layers, args.seed)
    else:
        poly = random_poly(args.qubits, args.gadgets, args.max_legs, args.seed)
    _write_text(args.out, poly.to_json(indent=2) + "\n")
    return 0


def _cmd_simplify(args: argparse.Namespace) -> int:
    poly = _load_poly(args.infile)
    _write_text(args.out, simplify_poly(poly).to_json(indent=2) + "\n")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    poly = _load_poly(args.infile)
    arch = _load_arch(args.arch)
    lowered = circ.lower_regions(synthesize(simplify_poly(poly), arch, args.mode), arch)
    method, ok, _ = sim.verify(poly, lowered, arch)
    if not ok:
        print(f"error: the synthesized circuit is not proven to implement the polynomial "
              f"(method={method})", file=sys.stderr)
        return 1
    if args.format == "qasm":
        _write_text(args.out, circ.to_qasm(lowered))
    else:
        _write_text(args.out, circ.circuit_to_json(lowered, indent=2) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    arch = None if args.arch is None else _load_arch(args.arch)
    method, ok, detail = sim.verify(_load_poly(args.poly), _load_circuit(args.circuit), arch,
                                    args.tol)
    verdict = "PASS" if ok else "UNPROVEN" if method == "unproven" else "FAIL"
    note = ""
    if method == "oracle":
        note = f" residual={detail:.3e} tol={args.tol:.1e}"
    elif method == "edges":
        note = f" cx={detail.control},{detail.target}"
    print(f"{verdict} method={method}{note}")
    return 0 if ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    grid = json.loads(_read_text(args.grid))
    records, failures = run_bench(grid, reps=args.reps, base_seed=args.seed)
    _write_text(args.out, records_to_csv(records))
    print(f"{len(records)} records, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zxpoly",
        description="Simplify and synthesize ZX phase-gadget circuits onto "
                    "constrained qubit connectivities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random or MaxCut polynomial")
    gen.add_argument("--qubits", type=ascii_number, default=4)
    gen.add_argument("--gadgets", type=ascii_number, default=10)
    gen.add_argument("--max-legs", type=ascii_number, default=4)
    gen.add_argument("--seed", type=ascii_number, default=0)
    gen.add_argument("--maxcut", action="store_true",
                     help="generate a MaxCut ansatz instead of a random polynomial")
    gen.add_argument("--vertices", type=ascii_number, default=4)
    gen.add_argument("--p-edge", type=ascii_float, default=0.5)
    gen.add_argument("--layers", type=ascii_number, default=1)
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=_cmd_generate)

    simp = sub.add_parser("simplify", help="peephole-simplify a polynomial JSON")
    simp.add_argument("--in", dest="infile", required=True)
    simp.add_argument("--out", default="-")
    simp.set_defaults(func=_cmd_simplify)

    syn = sub.add_parser("synth", help="synthesize a polynomial onto an architecture")
    syn.add_argument("--in", dest="infile", required=True)
    arch_help = "descriptor like line:4, grid:3x3, complete:5, or a JSON graph file"
    syn.add_argument("--arch", required=True, help=arch_help)
    syn.add_argument("--mode", choices=("fast", "gauss"), default="fast")
    syn.add_argument("--format", choices=("qasm", "json"), default="qasm")
    syn.add_argument("--out", default="-")
    syn.set_defaults(func=_cmd_synth)

    ver = sub.add_parser("verify", help="compare a polynomial against a circuit")
    ver.add_argument("--poly", required=True)
    ver.add_argument("--circuit", required=True)
    ver.add_argument("--tol", type=ascii_float, default=1e-9)
    ver.add_argument("--arch", help=arch_help + "; every CNOT must be one of its coupling edges")
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="run a benchmark sweep to CSV")
    ben.add_argument("--grid", required=True, help="JSON sweep description")
    ben.add_argument("--reps", type=ascii_number, default=20)
    ben.add_argument("--seed", type=ascii_number, default=0)
    ben.add_argument("--out", default="-")
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, RecursionError) as exc:  # JSON nested too deep
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
