#!/usr/bin/env python3
"""Self-test of the benchmark, in about two minutes:

    python3 perfbench/selftest.py

1. the generated inputs are identical for a fixed seed (and differ between
   seeds);
2. every workload, traced and untraced, prints every metric of
   BENCHMARK.json with its unit and passes its correctness gate (run on
   the reduced ``--smoke`` inputs);
3. the correctness gate fails on a corrupted result, and a run whose mapper
   returns corrupted results reports it as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

harness.control_environment()

import inputs  # noqa: E402
import inproc  # noqa: E402
from repro import DPMapper, SATMapper, ibm_qx4  # noqa: E402
from repro.circuit.circuit import QuantumCircuit  # noqa: E402


def check_inputs() -> None:
    for size in (inputs.FULL, inputs.SMOKE):
        for seed in (0, 7):
            assert inputs.digest(seed, size) == inputs.digest(seed, size), "inputs not repeatable"
        assert inputs.digest(1, size) != inputs.digest(2, size), "seed changes nothing"
    print("ok   inputs repeat for a fixed seed and differ between seeds")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("exact-qx4", "warm-grid8", "serve-http"):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "3", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
            last = json.loads(completed.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
            expected = {metric["name"]: metric["unit"] for metric in wanted}
            printed = {name: value["unit"] for name, value in last["metrics"].items()}
            assert printed == expected, (workload, trace, printed)
            print(f"ok   {workload} --trace {trace}: {len(printed)} metrics with units")


def _corrupt(result):
    """The same result with its first mapped CNOT reversed."""
    mapped = result.mapped_circuit
    corrupted = QuantumCircuit(mapped.num_qubits, name=mapped.name)
    flipped = False
    for gate in mapped.gates:
        if gate.name == "cx" and not flipped:
            corrupted.cx(gate.target, gate.control)
            flipped = True
        else:
            getattr(corrupted, gate.name)(*gate.qubits)
    result.mapped_circuit = corrupted
    return result


def check_gate() -> None:
    coupling = ibm_qx4()
    circuit = inputs.exact_qx4(0, inputs.SMOKE)[0]
    good = DPMapper(coupling).map(circuit)
    assert inproc.verify(good, circuit, coupling) is None, "gate rejects a correct result"
    assert inproc.verify(_corrupt(DPMapper(coupling).map(circuit)), circuit, coupling), \
        "gate accepts a corrupted result"

    original = SATMapper.map
    SATMapper.map = lambda self, c, **kw: _corrupt(original(self, c, **kw))
    try:
        harness.OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=harness.OUT) as work:
            outcome = inproc.run_exact_qx4(0, inputs.SMOKE, False, dict(os.environ), Path(work))
    finally:
        SATMapper.map = original
    assert outcome.failures, "a corrupted run passed the gate"
    print(f"ok   correctness gate fails a corrupted result ({outcome.failures[0]})")


if __name__ == "__main__":
    check_inputs()
    check_gate()
    check_metrics()
    print("selftest passed")
