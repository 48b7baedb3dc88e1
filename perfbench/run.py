"""zxpoly compile benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's instance set from the seed, then compiles it in
PASSES whole passes, starting none after S seconds have gone. The first
pass is checked: every CNOT must lie on a coupling edge and, up to 9
qubits, the output unitary must equal the input's; later passes must emit
the same gates. Times are scaled to a reference machine speed (see
harness.at_reference_speed). With --trace 1 the set is compiled once untraced and once with
every layer boundary wrapped, and the per-layer metrics are printed instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A report with every instance record (and the spans, when traced) goes to
perfbench/out/. Run from the root of a checkout; zxpoly is imported from
its src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import harness
from layers import Tracer

PASSES = 3
SETUP_REPEATS = 5  # per pass, so set-up is timed at the start, middle and end of a run
OUT = Path(__file__).resolve().parent / "out"


def set_up(workload: harness.Workload, seed: int) -> tuple:
    """Import zxpoly, build the instance set and the shared Architectures,
    SETUP_REPEATS times; returns (modules, instances, each set-up's seconds
    at the reference machine's speed)."""
    times = []
    for _ in range(SETUP_REPEATS):
        calibration = harness.calibrate()
        start = time.perf_counter()
        z = harness.load_zxpoly()
        instances = workload.instances(z, seed)
        if workload.shared_arch:
            for arch in {inst.arch for inst in instances}:
                z.arch.build_architecture(arch)
        times.append(harness.at_reference_speed(time.perf_counter() - start, calibration))
    return z, instances, times


def timed_run(workload: harness.Workload, seed: int, seconds: float):
    """Set up and compile the set PASSES times, starting no pass after
    `seconds` have gone. The first pass is checked; the others must emit
    the same gates. Returns (passes, set-up seconds)."""
    deadline = time.perf_counter() + seconds
    passes, setup_times = [], []
    while len(passes) < PASSES and (not passes or time.perf_counter() < deadline):
        z, instances, times = set_up(workload, seed)
        setup_times += times
        records = harness.run_pass(z, instances, workload.shared_arch, check=not passes)
        if passes:
            harness.inherit_verdicts(records, passes[0])
        passes.append(records)
    return passes, setup_times


def end_to_end(workload: harness.Workload, passes, setup_times) -> tuple[dict, float]:
    """p50 and tail are taken over every compile of every pass. Every time
    is at the reference machine's speed (harness.at_reference_speed).
    Returns (metrics as name -> (value, unit), the median scale factor).
    """
    reference = passes[0]
    ok = [i for i, r in enumerate(reference) if all(p[i].error is None for p in passes)]
    if not ok:
        raise RuntimeError("no instance compiled and passed its check")
    times = [p[i].reference_seconds for p in passes for i in ok]
    scale = statistics.median(p[i].reference_seconds / p[i].seconds for p in passes for i in ok)
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_percentile(workload) - 1]
    compiles = sum(len(p) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p)
    return {
        "compile_s.p50": (statistics.median(times), "s"),
        "compile_s.tail": (tail, "s"),
        "gadgets_per_s": (len(passes) * sum(reference[i].gadgets for i in ok) / sum(times), "gadgets/s"),
        "cx_out": (sum(reference[i].cx_out for i in ok), "count"),
        "cx_reduction_pct": (statistics.mean(reference[i].reduction_pct for i in ok), "%"),
        "passed_share": (1 - failed / compiles, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, scale


def tail_percentile(workload: harness.Workload) -> int:
    """Highest whole percentile with at least 10 of the PASSES x size
    compiles beyond it (p1 for sets too small to have one)."""
    return max(1, 100 - -(-1000 // (PASSES * workload.size)))


def traced_run(workload: harness.Workload, seed: int):
    """Compile the set once untraced, then once traced and checked.
    Returns (traced pass, untraced pass, tracer, per-layer metrics)."""
    z, instances, _ = set_up(workload, seed)
    untraced = harness.run_pass(z, instances, workload.shared_arch, check=False)
    tracer = Tracer()
    with tracer.patched(z):
        traced = harness.run_pass(z, instances, workload.shared_arch, check=True, span=tracer.span)
    harness.inherit_verdicts(untraced, traced)
    ok = [(t, u) for t, u in zip(traced, untraced) if t.error is None and u.error is None]
    if not ok:
        raise RuntimeError("no instance compiled and passed its check")
    scaled_ratio = sum(t.reference_seconds for t, _ in ok) / sum(u.reference_seconds for _, u in ok)
    metrics = tracer.metrics(
        compile_s=sum(t.seconds for t, _ in ok),
        overhead_pct=100.0 * (scaled_ratio - 1.0),
        gadgets_in=sum(t.gadgets for t, _ in ok),
        gadgets_out=sum(t.simplified for t, _ in ok),
    )
    return traced, untraced, tracer, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    # numpy is a third-party dependency of the oracle: loaded once, outside
    # the timing, and single-threaded so the checks do not contend with
    # the timed compiles.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import numpy  # noqa: F401

    tracer = scale = None
    try:
        if args.trace:
            traced, untraced, tracer, metrics = traced_run(workload, args.seed)
            passes = [traced, untraced]
        else:
            passes, setup_times = timed_run(workload, args.seed, args.seconds)
            metrics, scale = end_to_end(workload, passes, setup_times)
    except FileNotFoundError as exc:
        print(f"perfbench: cannot load zxpoly: {exc}", file=sys.stderr)
        return 2
    reference = passes[0]
    compiles = [r for p in passes for r in p]
    failed = [r for r in compiles if r.error is not None]
    digest = harness.set_digest(reference)
    methods = {m: sum(r.method == m for r in reference) for m in ("oracle", "edge-only")}

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {len(reference)} "
          f"instances, {len(passes)} passes, {len(compiles)} compiles, {len(failed)} failed")
    print(f"  checked: oracle {methods['oracle']}, edge-only {methods['edge-only']}; "
          f"failed_share {len(failed) / len(compiles):.6g}; output digest {digest}")
    if scale is not None:
        print(f"  times scaled to the reference machine's speed by a median {scale:.4f}")
    for r in failed:
        print(f"  FAILED {r.label}: {r.error}")
    for name, (value, unit) in metrics.items():
        note = {"cx_out": f"  digest={digest}",
                "compile_s.tail": f"  p{tail_percentile(workload)} of {len(compiles)} compiles"}
        print(f"  {name:40s} {value:>14.6g} {unit}{note.get(name, '')}")

    OUT.mkdir(exist_ok=True)
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "digest": digest, "tail_percentile": tail_percentile(workload), "time_scale": scale,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "instances": [asdict(r) for r in reference],
        "failures": [asdict(r) for r in failed],
        "spans": tracer.spans if tracer else [],
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(compiles),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
