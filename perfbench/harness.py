"""Workloads, the timed compile and the output checks of the benchmark.

The pipeline is driven only through zxpoly's public functions:
generators -> simplify -> synthesize -> lower_regions. The package is
imported from the checkout's own `src/`, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("arch", "circuit", "generators", "parity", "rules", "sim", "simplify", "synth")
ORACLE_MAX_QUBITS = 9
ORACLE_TOL = 1e-9
CALIBRATION_ITERS = 10_000
CALIBRATION_REF_S = 0.004  # seconds calibrate() takes on the reference machine, a quiet 2-core x86 VM


def load_zxpoly() -> SimpleNamespace:
    """Import zxpoly afresh from src/ and return its modules by short name.

    The package is dropped from sys.modules first, so every call pays the
    whole import and set-up can be timed several times in one process.
    """
    if not (SRC / "zxpoly" / "__init__.py").is_file():
        raise FileNotFoundError(f"no zxpoly package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "zxpoly" or n.startswith("zxpoly.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"zxpoly.{m}") for m in MODULES})


@dataclass(frozen=True)
class Instance:
    label: str
    arch: str  # descriptor for build_architecture
    mode: str  # "fast" or "gauss"
    poly: object  # zxpoly.poly.ZXPolynomial


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # instances in the set
    shared_arch: bool  # one Architecture per topology per pass, built outside the timed compile
    make: Callable[[SimpleNamespace, random.Random, int], Instance]

    def instances(self, z: SimpleNamespace, seed: int, size: int | None = None) -> list[Instance]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make(z, rng, i) for i in range(self.size if size is None else size)]


def _random_instance(z, rng, i, q, archs, sizes, mode) -> Instance:
    arch = archs[i % len(archs)]
    n = sizes[i // len(archs) % len(sizes)]
    poly = z.generators.random_poly(q, n, min(4, q), rng.randrange(1 << 31))
    return Instance(f"{i}:{arch}:n{n}:{mode}", arch, mode, poly)


def _gauss_shared(z, rng, i) -> Instance:
    return _random_instance(z, rng, i, 4, ("line:4", "circle:4", "complete:4"), (30, 60), "gauss")


def _fast_scale(z, rng, i) -> Instance:
    return _random_instance(z, rng, i, 12, ("line:12", "grid:3x4", "circle:12"), (8, 16), "fast")


def _qaoa_cold(z, rng, i) -> Instance:
    arch = ("line:8", "circle:8", "grid:2x4")[i % 3]
    mode = ("fast", "gauss")[i // 3 % 2]
    layers = 1 + i // 6 % 3
    poly = z.generators.maxcut_qaoa(8, 0.5, layers, rng.randrange(1 << 31))
    return Instance(f"{i}:{arch}:p{layers}:{mode}", arch, mode, poly)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss-shared-arch", size=90, shared_arch=True, make=_gauss_shared),
        Workload("fast-scale", size=42, shared_arch=True, make=_fast_scale),
        Workload("qaoa-cold", size=54, shared_arch=False, make=_qaoa_cold),
    )
}


@dataclass
class Record:
    """One compile of one instance, and how its output was checked."""

    label: str
    qubits: int
    gadgets: int
    simplified: int | None = None  # gadgets left after simplify
    seconds: float | None = None
    cx_out: int | None = None
    cx_naive: int | None = None
    reduction_pct: float | None = None
    method: str | None = None  # "oracle" or "edge-only"; None when unchecked
    digest: str | None = None
    error: str | None = None
    calibration_s: float | None = None  # the calibration loop, run just before this compile

    @property
    def reference_seconds(self) -> float:
        return at_reference_speed(self.seconds, self.calibration_s)


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes now.

    It does not touch zxpoly, so a change to zxpoly cannot move it; run
    between compiles, it samples how fast the machine is at that moment.
    """
    start = time.perf_counter()
    total, seen = 0, {}
    for i in range(CALIBRATION_ITERS):
        key = (i & 255, i % 7)
        total += seen.get(key, 0) ^ i
        seen[key] = total & 0xFFFF
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """Scale a time to the reference machine's speed by the calibration loop
    run just before it. A shared machine's speed drifts by tens of percent
    within seconds; a loop run next to the work drifts with it."""
    return seconds * CALIBRATION_REF_S / calibration_s


def _no_span(name: str):
    return nullcontext()


def gate_text(z: SimpleNamespace, circuit) -> str:
    parts = []
    for gate in circuit.gates:
        if isinstance(gate, z.rules.Cnot):
            parts.append(f"cx{gate.control},{gate.target}")
        else:
            kind = "rz" if isinstance(gate, z.circuit.Rz) else "rx"
            parts.append(f"{kind}{gate.qubit}:{gate.phase}")
    return " ".join(parts)


def set_digest(records: list[Record]) -> str:
    """Digest of every emitted gate sequence of a pass, in instance order."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.label}={r.digest or r.error}\n".encode())
    return h.hexdigest()[:16]


def compile_instance(z: SimpleNamespace, inst: Instance, arch, span=_no_span):
    """The timed part: simplify + synthesize + lower_regions, and the
    Architecture build too when none is shared.

    Returns (seconds, arch, simplified gadget count, circuit)."""
    start = time.perf_counter()
    if arch is None:
        with span("arch.build"):
            arch = z.arch.build_architecture(inst.arch)
    with span("simplify"):
        reduced = z.simplify.simplify(inst.poly)
    with span("synthesize"):
        regions = z.synth.synthesize(reduced, arch, inst.mode)
    with span("lower_regions"):
        circuit = z.circuit.lower_regions(regions, arch)
    return time.perf_counter() - start, arch, len(reduced.gadgets), circuit


def check_output(z: SimpleNamespace, inst: Instance, arch, circuit) -> tuple[str, str | None]:
    """Every CNOT must be a coupling edge; up to ORACLE_MAX_QUBITS the unitary
    must also equal the input's. Returns (method, error or None)."""
    for gate in circuit.gates:
        if isinstance(gate, z.rules.Cnot) and not arch.is_edge(gate.control, gate.target):
            return "edge-only", f"CNOT({gate.control},{gate.target}) is not a coupling edge"
    if inst.poly.num_qubits > ORACLE_MAX_QUBITS:
        return "edge-only", None
    same = z.sim.equal_up_to_global_phase(
        z.sim.poly_unitary(inst.poly), z.sim.circuit_unitary(circuit), tol=ORACLE_TOL
    )
    return "oracle", None if same else "unitary differs from the input polynomial's"


def run_pass(
    z: SimpleNamespace,
    instances: list[Instance],
    shared_arch: bool,
    check: bool = True,
    span=_no_span,
) -> list[Record]:
    """Compile every instance once, on freshly built Architectures.

    An instance that raises is recorded with its exception and the pass
    goes on. With `check`, each output is verified and its naive-ladder
    baseline computed, both outside the timed part.
    """
    archs = {}
    if shared_arch:
        for inst in instances:
            if inst.arch not in archs:
                with span("arch.build"):
                    archs[inst.arch] = z.arch.build_architecture(inst.arch)
    records = []
    for inst in instances:
        rec = Record(inst.label, inst.poly.num_qubits, len(inst.poly.gadgets))
        rec.calibration_s = calibrate()
        with span("instance"):
            try:
                rec.seconds, arch, rec.simplified, circuit = compile_instance(
                    z, inst, archs.get(inst.arch), span
                )
                rec.cx_out = z.circuit.cnot_count(circuit)
                rec.digest = hashlib.sha256(gate_text(z, circuit).encode()).hexdigest()[:16]
                if check:
                    with span("sim.verify"):
                        rec.method, rec.error = check_output(z, inst, arch, circuit)
                    rec.cx_naive = z.circuit.cnot_count(z.circuit.naive_poly_circuit(inst.poly, arch))
                    rec.reduction_pct = z.circuit.reduction(rec.cx_naive, rec.cx_out)
            except Exception as exc:  # one failing instance must not end the run
                rec.error = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def inherit_verdicts(records: list[Record], reference: list[Record]) -> None:
    """Give unchecked records the verdict of the same instance in the checked
    reference pass; a record whose gates differ from the reference fails."""
    for rec, ref in zip(records, reference, strict=True):
        if rec.error is None:
            rec.method = ref.method
            rec.error = ref.error
            if rec.error is None and rec.digest != ref.digest:
                rec.error = "output differs from the checked pass"
