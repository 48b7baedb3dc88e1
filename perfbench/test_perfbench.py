"""Tests of the benchmark itself, on tiny seeded versions of its workloads."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def restore_zxpoly(monkeypatch, tmp_path):
    """load_zxpoly re-imports the package; give later tests back the modules
    they were collected with, and keep reports out of the tree."""
    saved = {k: v for k, v in sys.modules.items() if k == "zxpoly" or k.startswith("zxpoly.")}
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    yield
    for name in [k for k in sys.modules if k == "zxpoly" or k.startswith("zxpoly.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _tiny(name: str, size: int = 2) -> tuple:
    z = harness.load_zxpoly()
    workload = harness.WORKLOADS[name]
    return z, workload, workload.instances(z, seed=7, size=size)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_workload_repeats_exactly(name):
    results = []
    for _ in range(2):
        z, workload, instances = _tiny(name)
        records = harness.run_pass(z, instances, workload.shared_arch)
        assert all(r.error is None for r in records), [r.error for r in records]
        results.append((sum(r.cx_out for r in records), harness.set_digest(records)))
    assert results[0] == results[1]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_pass_emits_the_same_gates(name):
    z, workload, instances = _tiny(name)
    originals = (z.synth.steiner_gauss, z.parity.steiner_gauss, z.arch.Architecture.terminal_tree)
    untraced = harness.run_pass(z, instances, workload.shared_arch)
    tracer = Tracer()
    with tracer.patched(z):
        traced = harness.run_pass(z, instances, workload.shared_arch, span=tracer.span)
    assert (z.synth.steiner_gauss, z.parity.steiner_gauss, z.arch.Architecture.terminal_tree) == originals
    assert [r.digest for r in traced] == [r.digest for r in untraced]
    assert all(r.error is None for r in traced)
    metrics = tracer.metrics(1.0, 0.0, 1, 1)
    assert metrics["circuit.parity_cx"][0] + metrics["circuit.gadget_cx"][0] == sum(
        r.cx_out for r in traced
    )
    instance_spans = [s for s in tracer.spans if s["name"] == "instance"]
    assert len(instance_spans) == len(instances)
    assert all(s["parent"] is None for s in instance_spans)
    assert {s["name"] for s in tracer.spans if s["parent"] is not None} >= {
        "simplify", "synthesize", "lower_regions", "sim.verify"
    }


def test_failing_instance_is_counted_and_the_run_goes_on():
    def make(z, rng, i):
        if i == 1:  # three qubits on a four-qubit architecture
            return harness.Instance("bad", "line:4", "gauss", z.generators.random_poly(3, 4, 2, 0))
        return harness.WORKLOADS["gauss-shared-arch"].make(z, rng, i)

    workload = dataclasses.replace(harness.WORKLOADS["gauss-shared-arch"], size=3, make=make)
    passes, setup_times = run.timed_run(workload, seed=1, seconds=0)
    assert len(passes) == 1 and len(setup_times) == run.SETUP_REPEATS
    bad = passes[0][1]
    assert bad.error.startswith("ValueError: polynomial and architecture disagree")
    assert [r.error for r in passes[0][::2]] == [None, None]
    metrics, _ = run.end_to_end(workload, passes, setup_times)
    assert metrics["passed_share"][0] == pytest.approx(2 / 3)
    assert metrics["cx_out"][0] == passes[0][0].cx_out + passes[0][2].cx_out


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(monkeypatch, capsys, trace, kind):
    workload = harness.WORKLOADS["qaoa-cold"]
    monkeypatch.setitem(harness.WORKLOADS, workload.name, dataclasses.replace(workload, size=3))
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "qaoa-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
