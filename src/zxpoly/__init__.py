"""zxpoly: architecture-aware synthesis and optimization of ZX phase-gadget
circuits.

A quantum circuit is modeled as a ZX polynomial (an ordered run of Z/X
phase gadgets, optionally flanked by GF(2) parity maps), simplified by
exact peephole rewriting, and lowered to a CNOT+RZ/RX circuit that only
uses the coupling edges of a target architecture. `sim.verify` proves each
output with an exact certificate, or a dense-unitary oracle at small sizes.
"""

from .arch import Architecture, build_architecture, circle, complete, grid, line
from .circuit import (
    Circuit,
    Rx,
    Rz,
    circuit_from_json,
    circuit_to_json,
    cnot_count,
    from_qasm,
    lower_regions,
    naive_gadget_circuit,
    naive_poly_circuit,
    reduction,
    steiner_gadget_circuit,
    to_qasm,
)
from .generators import maxcut_qaoa, random_poly
from .parity import (
    ParityMap,
    append_cnot,
    cnot_cost,
    cnot_lower_bound,
    from_cnots,
    gauss_cnots,
    identity_map,
    prepend_cnot,
    steiner_gauss,
)
from .poly import Phase, PhaseGadget, ZXPolynomial
from .rules import (
    Cnot,
    commutes,
    pi_commute_swap,
    propagate_cnot_gadget,
    propagate_cnot_poly,
    try_merge,
)
from .simplify import simplify
from .synth import (
    effect_parity,
    effect_zx,
    gadget_cost,
    optimize_fast,
    optimize_gauss,
    regroup,
    score,
    split,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture", "build_architecture", "line", "circle", "grid", "complete",
    "Phase", "PhaseGadget", "ZXPolynomial",
    "Cnot", "propagate_cnot_gadget", "propagate_cnot_poly", "commutes",
    "pi_commute_swap", "try_merge",
    "ParityMap", "identity_map", "append_cnot", "prepend_cnot", "from_cnots",
    "gauss_cnots", "steiner_gauss", "cnot_cost", "cnot_lower_bound",
    "simplify",
    "gadget_cost", "effect_zx", "effect_parity", "optimize_gauss",
    "optimize_fast", "score", "regroup", "split", "synthesize",
    "Circuit", "Rz", "Rx", "naive_gadget_circuit", "steiner_gadget_circuit",
    "naive_poly_circuit", "lower_regions", "cnot_count", "reduction",
    "to_qasm", "from_qasm", "circuit_to_json", "circuit_from_json",
    "random_poly", "maxcut_qaoa",
    "__version__",
]
