"""Acceptance suite: one test per shipping criterion, tolerances pinned here.

Each criterion prints a single PASS/FAIL line (run with `pytest -s` to see
them as they complete). Criterion 5 checks the routed-cost bound on
parity-cost changes exactly for q <= 4 and, on random draws, shows each
excess of the greedy synthesis over it to be a suboptimality of that
synthesis; its PASS line also counts the draws above the hop distance,
which `optimize_fast` uses as an estimate only.
"""

import random
import statistics

import numpy as np

import zxpoly as zx
from zxpoly import sim
from zxpoly.bench import run_bench, run_instance
from zxpoly.generators import random_poly
from conftest import (
    effect_parity, exact_cnot_counts, gadget_unitary, random_gadget, random_invertible_map,
    random_zx_poly,
)

PH = zx.Phase

RULE_TOL = 1e-12
PIPELINE_TOL = 1e-9
BENCH_SEED = 1000

TABLE1_FAST_Q4 = 60.49       # reported mean reduction, divide_fast, 4 qubits
TABLE1_BAND_PP = 15.0        # acceptance band, percentage points
GAUSS_ADVANTAGE_SLACK = 2.0  # gauss may trail fast by at most this much
TABLE2_FAST_Q9 = 41.82       # reported mean reduction, 3x3 grid, 10 gadgets
SPEED_FACTOR = 3.0           # fast must beat gauss by at least this factor
SCALING_FACTOR = 3.0         # allowed slowdown when doubling gadget count
EXACT_MAX_QUBITS = 4         # largest q whose GL(q, 2) is searched exhaustively
GL2_ORDER = {2: 6, 3: 168, 4: 20160}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _topologies_for(q: int) -> list[zx.Architecture]:
    archs = [zx.line(q), zx.circle(q), zx.complete(q)]
    for rows in range(2, q):
        if q % rows == 0:
            archs.append(zx.grid(rows, q // rows))
            break
    else:
        archs.append(zx.grid(1, q))
    return archs


def test_criterion_1_rewrite_rule_soundness():
    """Propagation, commutation, pi-swap and merge against the oracle."""
    rng = random.Random(0)
    for _ in range(500):
        q = rng.randint(2, 4)
        g = random_gadget(rng, q)
        cnot = zx.Cnot(*rng.sample(range(q), 2))
        conj = sim.circuit_unitary(zx.Circuit(q, [cnot]))
        u_prop = gadget_unitary(zx.propagate_cnot_gadget(g, cnot), q)
        assert np.linalg.norm(conj @ u_prop @ conj - gadget_unitary(g, q)) < RULE_TOL

    for _ in range(500):
        q = rng.randint(1, 4)
        a, b = random_gadget(rng, q), random_gadget(rng, q)
        ua, ub = gadget_unitary(a, q), gadget_unitary(b, q)
        assert zx.commutes(a, b) == (np.linalg.norm(ua @ ub - ub @ ua) < RULE_TOL)

    swaps = 0
    while swaps < 500:
        q = rng.randint(1, 4)
        a, b = random_gadget(rng, q), random_gadget(rng, q)
        if rng.random() < 0.5:
            a = a.with_phase(PH(1, 1))
        if rng.random() < 0.5:
            b = b.with_phase(PH(1, 1))
        if zx.commutes(a, b):
            continue  # a commuting pair swaps as is; count only the pi rule's exchanges
        swapped = zx.exchange(a, b)
        if swapped is None:
            continue
        swaps += 1
        first, second = swapped
        before = gadget_unitary(b, q) @ gadget_unitary(a, q)
        after = gadget_unitary(second, q) @ gadget_unitary(first, q)
        assert sim.equal_up_to_global_phase(before, after, RULE_TOL)

    for _ in range(500):
        q = rng.randint(1, 4)
        a = random_gadget(rng, q)
        b = zx.PhaseGadget(a.basis, a.legs, PH(rng.randint(1, 7), 4))
        merged = zx.try_merge(a, b)
        product = gadget_unitary(b, q) @ gadget_unitary(a, q)
        assert sim.equal_up_to_global_phase(product, gadget_unitary(merged, q), RULE_TOL)

    _report(1, True, "500 instances per rule within 1e-12")


def test_criterion_2_end_to_end_equivalence():
    """200 random polynomials x 4 topologies x 2 modes, pipeline vs oracle."""
    rng = random.Random(1)
    checked = 0
    for _ in range(200):
        q = rng.randint(2, 5)
        poly = random_zx_poly(rng, q, rng.randint(0, 16), min(4, q))
        reference = sim.poly_unitary(poly)
        for arch in _topologies_for(q):
            for mode in ("fast", "gauss"):
                regions = zx.synthesize(zx.simplify(poly), arch, mode)
                lowered = zx.lower_regions(regions, arch)
                for gate in lowered.gates:
                    if isinstance(gate, zx.Cnot):
                        assert arch.is_edge(gate.control, gate.target)
                assert sim.equal_up_to_global_phase(
                    sim.circuit_unitary(lowered), reference, PIPELINE_TOL
                ), (q, arch.name, mode)
                checked += 1
    _report(2, True, f"{checked} lowered circuits match at 1e-9")


def test_criterion_3_hadamard_pair():
    """The two-Hadamard polynomial simplifies to nothing."""
    triple = (
        zx.PhaseGadget.z([0], PH(1, 2)),
        zx.PhaseGadget.x([0], PH(1, 2)),
        zx.PhaseGadget.z([0], PH(1, 2)),
    )
    for copies in (2, 4):  # 6-gadget pair and the doubled 12-gadget form
        poly = zx.ZXPolynomial(1, triple * copies)
        simplified = zx.simplify(poly)
        assert len(simplified) == 0, f"{3 * copies}-gadget form left {len(simplified)} gadgets"
        assert sim.equal_up_to_global_phase(
            sim.poly_unitary(poly), np.eye(2, dtype=complex), PIPELINE_TOL
        )
    _report(3, True, "6- and 12-gadget forms collapse to the identity")


def test_criterion_4_parity_exactness():
    """200 random invertible maps replay bit-exactly on every topology."""
    rng = random.Random(2)
    replayed = 0
    for _ in range(200):
        q = rng.randint(2, 8)
        m = random_invertible_map(rng, q)
        for arch in _topologies_for(q):
            seq = zx.steiner_gauss(m, arch)
            assert zx.from_cnots(q, seq) == m, (arch.name, m.rows)
            for cnot in seq:
                assert arch.is_edge(cnot.control, cnot.target), (arch.name, cnot)
            replayed += 1
    _report(4, True, f"{replayed} syntheses replay exactly, edges only")


def _criterion_5_arch(q: int, topo: str) -> zx.Architecture:
    if topo == "grid":
        return {4: zx.grid(2, 2), 6: zx.grid(2, 3), 8: zx.grid(2, 4)}.get(q) or zx.grid(1, q)
    return {"line": zx.line, "circle": zx.circle, "complete": zx.complete}[topo](q)


def _routed_cost(d: int) -> int:
    """Edge CNOTs that realise one CNOT at hop distance d: r(C)."""
    return 1 if d == 1 else 4 * (d - 1)


def _absorb(rows: tuple[int, ...], c: int, t: int, side: str) -> tuple[int, ...]:
    """The map after effect_parity's absorption, on plain row bitmasks:
    the left region gets the gate after it, the right region before it."""
    if side == "left":
        out = list(rows)
        out[t] ^= rows[c]
        return tuple(out)
    cbit, tbit = 1 << c, 1 << t
    return tuple(row ^ cbit if row & tbit else row for row in rows)


def test_criterion_5_heuristic_bound():
    """Absorbing a CNOT C shifts a parity cost by at most its routed cost r(C).

    The hop distance d(c, t) that `optimize_fast` uses is an estimate, not a
    bound: an edge-only synthesis needs r(C) = 1 gate at d = 1 and 4(d-1)
    at d >= 2 (a lone distance-2 CNOT costs 4, and absorbing it saves 4).
    What holds is opt(M) - opt(M') <= opt(C) = r(C), where M' is M with C
    absorbed, since C's route followed or preceded by an optimal synthesis
    of M' replays to M. `cnot_cost` is exact for q <= 4 and meets it there;
    from q = 5 on the greedy meets it wherever it is optimal on M and may
    exceed it by its own suboptimality elsewhere.

    (a) Exact: for every q <= 4 topology of the mix, every map of GL(q, 2),
    every ordered pair and both sides, against the BFS oracle.
    (b) Program, on 500 random (map, CNOT, side) draws: the lone-CNOT
    synthesis has length r(C); cnot_cost(M) is the optimum on every q <= 4
    draw, where effect_parity <= r(C); every draw above r(C) is a greedy
    gap, witnessed by an edge-only synthesis of M (the route of C beside
    steiner_gauss(M')) that replays to M and is exactly effect - r(C)
    gates shorter than steiner_gauss(M).
    """
    topologies = ["line", "circle", "complete", "grid"]
    optimal: dict[frozenset, dict[tuple[int, ...], int]] = {}
    exact_checked = 0
    for q in range(2, EXACT_MAX_QUBITS + 1):
        for topo in topologies:
            arch = _criterion_5_arch(q, topo)
            if arch.edges in optimal:
                continue
            opt = optimal[arch.edges] = exact_cnot_counts(q, sorted(arch.edges))
            assert len(opt) == GL2_ORDER[q], (arch.name, len(opt))
            for c in range(q):
                for t in range(q):
                    if c == t:
                        continue
                    r = _routed_cost(arch.dist[c][t])
                    lone = _absorb(tuple(1 << i for i in range(q)), c, t, "left")
                    assert opt[lone] == r == zx.cnot_cost(zx.ParityMap(q, lone), arch), \
                        (arch.name, (c, t), opt[lone], r)
                    for rows, cost in opt.items():
                        for side in ("left", "right"):
                            assert cost - opt[_absorb(rows, c, t, side)] <= r, \
                                (arch.name, (c, t), side, rows)
                    exact_checked += 2 * len(opt)

    rng = random.Random(0)
    over_d, over_r = [], []
    at_optimum = 0
    for _ in range(500):
        q = rng.randint(2, 8)
        arch = _criterion_5_arch(q, rng.choice(topologies))
        m = random_invertible_map(rng, q)
        c, t = rng.sample(range(q), 2)
        side = "left" if rng.random() < 0.5 else "right"
        cnot = zx.Cnot(c, t)
        effect = effect_parity(m, cnot, side, arch)
        d = arch.dist[c][t]
        r = _routed_cost(d)
        instance = (arch.name, (c, t), side, effect, d, r)
        route = zx.steiner_gauss(zx.from_cnots(q, [cnot]), arch)
        assert len(route) == r, instance
        if effect > d:
            over_d.append(instance)
        opt = optimal.get(arch.edges)
        if opt is not None:
            assert zx.cnot_cost(m, arch) == opt[m.rows], instance
            at_optimum += 1
            assert effect <= r, instance
        if effect > r:
            over_r.append(instance)
            rest = zx.steiner_gauss(zx.ParityMap(q, _absorb(m.rows, c, t, side)), arch)
            witness = rest + route if side == "left" else route + rest
            assert zx.from_cnots(q, witness) == m, instance
            assert all(arch.is_edge(g.control, g.target) for g in witness), instance
            assert len(zx.steiner_gauss(m, arch)) - len(witness) == effect - r, instance
    worst = max(over_r, key=lambda v: v[3] - v[5]) if over_r else "n/a"
    _report(5, True, f"exact q<={EXACT_MAX_QUBITS}: {exact_checked} (map, CNOT, side) "
                     f"triples within r; {len(over_d)}/500 draws exceed the hop distance d, "
                     f"{len(over_r)}/500 exceed r, each a witnessed greedy gap "
                     f"(worst {worst}); {at_optimum} q<={EXACT_MAX_QUBITS} draws, all at the optimum, within r")


def test_criterion_6_table1_trends():
    """Reported q=4 reduction band, gauss advantage, and the speed gap."""
    grid = {
        "kind": "random",
        "qubits": [4, 5, 6],
        "gadgets": [10, 30, 50, 70, 90],
        "max_legs": 4,
        "architectures": ["complete", "line", "circle"],
        "algorithms": ["divide_fast", "divide_gauss"],
    }
    records, failures = run_bench(grid, reps=20, base_seed=BENCH_SEED)
    assert failures == 0, f"{failures} instances failed oracle verification"

    fast_q4 = statistics.fmean(r.reduction_pct for r in records
                               if r.algorithm == "divide_fast" and r.n_qubits == 4)
    fast_all = statistics.fmean(r.reduction_pct for r in records if r.algorithm == "divide_fast")
    gauss_all = statistics.fmean(r.reduction_pct for r in records if r.algorithm == "divide_gauss")
    fast_t6 = statistics.fmean(r.time_s for r in records
                               if r.algorithm == "divide_fast" and r.n_qubits == 6)
    gauss_t6 = statistics.fmean(r.time_s for r in records
                                if r.algorithm == "divide_gauss" and r.n_qubits == 6)

    band_ok = abs(fast_q4 - TABLE1_FAST_Q4) <= TABLE1_BAND_PP
    advantage_ok = gauss_all >= fast_all - GAUSS_ADVANTAGE_SLACK
    speed_ok = gauss_t6 >= SPEED_FACTOR * fast_t6
    detail = (f"fast@q4 {fast_q4:.2f}% (target {TABLE1_FAST_Q4}+-{TABLE1_BAND_PP}), "
              f"gauss {gauss_all:.2f}% vs fast {fast_all:.2f}%, "
              f"q=6 times fast {fast_t6:.3f}s vs gauss {gauss_t6:.3f}s")
    _report(6, band_ok and advantage_ok and speed_ok, detail)


def test_criterion_7_table2_spot_check():
    """3x3 grid, 9 qubits, 10 gadgets: divide_fast reduction band."""
    grid = {
        "kind": "random",
        "qubits": [9],
        "gadgets": [10],
        "max_legs": 4,
        "architectures": ["grid"],
        "algorithms": ["divide_fast"],
    }
    records, failures = run_bench(grid, reps=20, base_seed=BENCH_SEED)
    assert failures == 0
    assert all(r.verified for r in records)
    reduction = statistics.fmean(r.reduction_pct for r in records)
    ok = abs(reduction - TABLE2_FAST_Q9) <= TABLE1_BAND_PP
    _report(7, ok, f"fast@q9 grid {reduction:.2f}% (target {TABLE2_FAST_Q9}+-{TABLE1_BAND_PP})")


def test_criterion_8_scaling_smoke():
    """Doubling the gadget count at q=6 costs at most a 3x slowdown.

    Each seed's time is the best of 3 compiles, each on a fresh Architecture
    (cold caches), and the median over the 3 seeds is compared, so one slow
    spell of a shared machine does not decide the ratio."""
    def median_time(n_gadgets: int) -> float:
        times = []
        for rep in range(3):
            poly = random_poly(6, n_gadgets, 4, seed=BENCH_SEED + rep)
            times.append(min(run_instance(poly, zx.line(6), "divide_fast")[3] for _ in range(3)))
        return statistics.median(times)

    t64 = median_time(64)
    t128 = median_time(128)
    ratio = t128 / t64
    _report(8, ratio <= SCALING_FACTOR,
            f"n=64 {t64 * 1000:.0f} ms, n=128 {t128 * 1000:.0f} ms, ratio {ratio:.2f}")
