"""Benchmark sweeps: instance generation, pipeline timing, CNOT accounting.

A sweep grid is a JSON object like

    {"kind": "random",
     "qubits": [4, 5, 6],
     "gadgets": [10, 30, 50, 70, 90],
     "max_legs": 4,
     "architectures": ["complete", "line", "circle"],
     "algorithms": ["divide_fast", "divide_gauss"]}

(for kind "maxcut" use "vertices", "p_edges" and "layers" lists instead of
"qubits"/"gadgets"/"max_legs"). Repetition r of a grid point uses seed
base_seed + r, so runs are reproducible; the wall-time column is the only
non-deterministic output. Every output is checked by `sim.verify`, and its
`method` is recorded; only a proven output passes, so a wrong or unproven
one is a failure. A failure does not abort the sweep: an instance that
raises, while it is generated or compiled, keeps its row, with the
exception in the `error` column and the measurement columns left empty.
"""

from __future__ import annotations

import csv
import io
import itertools
import time
from collections import deque
from dataclasses import asdict, dataclass, fields

from . import sim
from .arch import Architecture, build_architecture
from .circuit import cnot_count, lower_regions, naive_poly_circuit, reduction
from .generators import maxcut_qaoa, random_poly
from .poly import ZXPolynomial
from .simplify import simplify
from .synth import synthesize

ALGORITHMS = ("divide_fast", "divide_gauss", "naive")


@dataclass
class BenchRecord:
    n_qubits: int
    n_pgs: int | None  # None when a maxcut instance could not be generated
    max_legs: int
    architecture: str
    algorithm: str
    seed: int
    cx_naive: int | None = None  # the measurements are None when the instance raised
    cx_out: int | None = None
    reduction_pct: float | None = None
    time_s: float | None = None
    verified: bool | None = None  # the sim.verify verdict, None only when the instance raised
    method: str = ""  # the sim.verify method, "" only when the instance raised
    error: str = ""  # "Type: message" of the exception the instance raised


CSV_HEADER = [f.name for f in fields(BenchRecord)]


def _arch_descriptor(name: str, num_qubits: int) -> str:
    name = name.lower()
    if ":" in name or name.startswith("{"):
        return name
    if name in ("line", "circle", "complete"):
        return f"{name}:{num_qubits}"
    if name == "grid":
        side = round(num_qubits ** 0.5)
        if side * side != num_qubits:
            raise ValueError(f"grid architecture needs a square qubit count, got {num_qubits}")
        return f"grid:{side}x{side}"
    raise ValueError(f"unknown architecture name {name!r}")


def run_instance(
    poly: ZXPolynomial, arch: Architecture, algorithm: str
) -> tuple[int, int, float, float, tuple[str, bool, object]]:
    """Run one pipeline; returns (cx_naive, cx_out, reduction, time, check),
    where check is the `sim.verify` triple of the output circuit.

    The time covers everything that produces the output circuit, simplify included.
    """
    start = time.perf_counter()
    if algorithm == "naive":
        circuit = naive_poly_circuit(poly, arch)
    else:
        mode = {"divide_fast": "fast", "divide_gauss": "gauss"}[algorithm]
        circuit = lower_regions(synthesize(simplify(poly), arch, mode), arch)
    elapsed = time.perf_counter() - start
    cx_out = cnot_count(circuit)
    cx_naive = cx_out if algorithm == "naive" else cnot_count(naive_poly_circuit(poly, arch))
    reduction_pct = reduction(cx_naive, cx_out) if cx_naive else 0.0
    return cx_naive, cx_out, reduction_pct, elapsed, sim.verify(poly, circuit, arch)


# (key, element type) of each grid kind's required sweep lists, then of the optional ones
_SWEEP_LISTS = {
    "random": (("qubits", int), ("gadgets", int)),
    "maxcut": (("vertices", int), ("p_edges", (int, float)), ("layers", int)),
}
_OPTIONAL_LISTS = (("architectures", str), ("algorithms", str))


def _check_grid(grid) -> None:
    """Raise ValueError("malformed grid JSON: ...") unless the grid is an
    object of the shape the module docstring describes."""
    if not isinstance(grid, dict):
        raise ValueError(f"malformed grid JSON: expected an object, got {type(grid).__name__}")
    kind = grid.get("kind", "random")
    if kind not in _SWEEP_LISTS:
        raise ValueError(f"unknown grid kind {kind!r}")
    for key, _ in _SWEEP_LISTS[kind]:
        if key not in grid:
            raise ValueError(f"malformed grid JSON: a {kind} grid needs a {key!r} list")
    for key, kinds in _SWEEP_LISTS[kind] + _OPTIONAL_LISTS:
        if key not in grid:
            continue  # an optional list left out takes its default
        values = grid[key]
        if not isinstance(values, list) or not values or not all(
            isinstance(v, kinds) and not isinstance(v, bool) for v in values
        ):
            raise ValueError(f"malformed grid JSON: {key!r} must be a non-empty list of "
                             f"{'strings' if kinds is str else 'numbers'}, got {values!r}")
    max_legs = grid.get("max_legs", 4)
    if not isinstance(max_legs, int) or isinstance(max_legs, bool):
        raise ValueError(f"malformed grid JSON: 'max_legs' must be an integer, got {max_legs!r}")


def _grid_points(grid: dict):
    _check_grid(grid)
    kind = grid.get("kind", "random")
    algorithms = grid.get("algorithms", ["divide_fast"])
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    keys = [key for key, _ in _SWEEP_LISTS[kind]]
    max_legs = grid.get("max_legs", 4) if kind == "random" else 2
    lists = [grid[key] for key in keys] + [grid.get("architectures", ["complete"])]
    for *values, arch_name in itertools.product(*lists):
        # the first list, qubits or vertices, is the qubit count
        yield {"kind": kind, **dict(zip(keys, values)), "qubits": values[0],
               "max_legs": max_legs, "arch": arch_name, "algorithms": algorithms}


def _instance(point: dict, seed: int) -> ZXPolynomial:
    if point["kind"] == "random":
        return random_poly(point["qubits"], point["gadgets"], point["max_legs"], seed)
    return maxcut_qaoa(point["vertices"], point["p_edges"], point["layers"], seed)


def run_bench(grid: dict, reps: int, base_seed: int) -> tuple[list[BenchRecord], int]:
    """Run the sweep; returns (records, number of failed instances): those
    that raised, and those whose output `sim.verify` did not prove. Raises
    ValueError on a sweep that would measure nothing: `reps` below 1, or an
    empty sweep list in the grid; and, before any instance runs, on a grid
    point whose architecture cannot be built or has another qubit count."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    points = deque()  # (point, its fresh Architecture), popped so each is freed when done
    for point in _grid_points(grid):
        arch = build_architecture(_arch_descriptor(point["arch"], point["qubits"]))
        if arch.num_qubits != point["qubits"]:
            raise ValueError(f"architecture {arch.name} has {arch.num_qubits} qubits, "
                             f"the grid point has {point['qubits']}")
        points.append((point, arch))
    records: list[BenchRecord] = []
    failures = 0
    while points:
        point, arch = points.popleft()
        for rep in range(reps):
            seed = base_seed + rep
            for algorithm in point["algorithms"]:
                record = BenchRecord(
                    n_qubits=point["qubits"],
                    n_pgs=point.get("gadgets"),
                    max_legs=point["max_legs"],
                    architecture=arch.name,
                    algorithm=algorithm,
                    seed=seed,
                )
                try:
                    poly = _instance(point, seed)
                    record.n_pgs = len(poly.gadgets)
                    (record.cx_naive, record.cx_out, record.reduction_pct, record.time_s,
                     (record.method, record.verified, _)) = run_instance(poly, arch, algorithm)
                except Exception as exc:
                    record.error = f"{type(exc).__name__}: {exc}"
                if not record.verified:
                    failures += 1
                records.append(record)
    return records, failures


def _fixed(value: float | None, digits: int) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow({**asdict(r), "reduction_pct": _fixed(r.reduction_pct, 4),
                         "time_s": _fixed(r.time_s, 6)})
    return buf.getvalue()
