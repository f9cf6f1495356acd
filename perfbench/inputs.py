"""Seeded inputs of the three workloads.

Every workload keeps its CNOT skeletons fixed and draws the rest of each
circuit -- the single-qubit gates and where they sit -- from the seed.  Both
mappers work on the CNOT skeleton only, so the work of a run, and its proven
minimum, are the same at every seed, while the circuits, their fingerprints,
their mapped output and its verification differ.  Drawing the skeletons
from the seed as well makes the per-seed spread measure instance difficulty
instead of the program: on qx4 the SAT subset sweep over four random
circuits with the Table-1 stand-ins' gate counts took 29 s, 30 s and 63 s
at three seeds.

Every run maps its inputs in ``ROUNDS`` identical rounds; the timings are
per-job means over the rounds (see ``harness.timing_metrics``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import QuantumCircuit, benchmark_circuit, get_record
from repro.benchlib.generators import random_cnot_circuit

SINGLE_QUBIT_POOL = ("t", "tdg", "h", "s", "sdg", "x", "z")

#: Identical rounds of each workload in one run: fewer where a run's
#: spread allows, so that all the runs of the benchmark fit its time.
ROUNDS = {"exact-qx4": 3, "warm-grid8": 2, "serve-http": 2}

#: Table-1 stand-ins of exact-qx4 (the paper's method on the paper's device).
#: 3_17_13 is left out: its sweep alone takes about 20 s, so three rounds of
#: it do not fit in a run.
EXACT_QX4_NAMES = ("ex-1_166", "ham3_102", "4gt11_84")

#: Fixed skeleton seeds of the generated workloads.  The grid8 skeletons are
#: three of ``random_cnot_circuit(3, 12, seed=8000..8007)`` whose cold sweeps
#: take 1.8-2.8 s each, so a round takes about 10 s.
GRID8_SKELETON_SEEDS = (8000, 8003, 8006)
SERVE_SKELETON_BASE = 4000
SERVE_PREPUT_BASE = 6000


@dataclass(frozen=True)
class Size:
    """How much work one round of each workload does."""

    exact_names: Tuple[str, ...] = EXACT_QX4_NAMES
    grid8_skeletons: Tuple[int, ...] = GRID8_SKELETON_SEEDS
    grid8_cnots: int = 12
    grid8_singles: int = 6
    grid8_variants: int = 1
    serve_fresh: int = 25
    serve_repeats_per_fresh: int = 3
    serve_preput: int = 10
    serve_cnots: int = 16
    serve_singles: int = 6


FULL = Size()
#: A few seconds per workload, for the self-test.
SMOKE = Size(
    exact_names=("ex-1_166",),
    grid8_skeletons=GRID8_SKELETON_SEEDS[:1],
    grid8_cnots=6,
    serve_fresh=4,
    serve_preput=2,
    serve_cnots=8,
)


def with_singles(
    skeleton: QuantumCircuit, num_single: int, rng: random.Random, name: str
) -> QuantumCircuit:
    """*skeleton*'s CNOTs in order, with *num_single* drawn single-qubit gates."""
    cnots = [(gate.control, gate.target) for gate in skeleton.cnot_gates()]
    placements = sorted(rng.randrange(-1, len(cnots)) for _ in range(num_single))
    circuit = QuantumCircuit(skeleton.num_qubits, name=name)
    placed = 0

    def emit(after: int) -> None:
        nonlocal placed
        while placed < len(placements) and placements[placed] <= after:
            gate = rng.choice(SINGLE_QUBIT_POOL)
            getattr(circuit, gate)(rng.randrange(skeleton.num_qubits))
            placed += 1

    emit(-1)
    for index, (control, target) in enumerate(cnots):
        circuit.cx(control, target)
        emit(index)
    return circuit


def _distinct(make, count: int) -> List[QuantumCircuit]:
    """*count* circuits from ``make(index, salt)`` with pairwise distinct
    fingerprints (a redraw with the next salt replaces a duplicate)."""
    seen = set()
    circuits = []
    for index in range(count):
        salt = 0
        circuit = make(index, salt)
        while circuit.fingerprint() in seen:
            salt += 1
            circuit = make(index, salt)
        seen.add(circuit.fingerprint())
        circuits.append(circuit)
    return circuits


def exact_qx4(seed: int, size: Size = FULL) -> List[QuantumCircuit]:
    """The Table-1 stand-ins; other seeds redraw their single-qubit gates."""
    circuits = []
    for name in size.exact_names:
        circuit = benchmark_circuit(name)
        if seed != 0:
            rng = random.Random(f"exact-qx4/{seed}/{name}")
            circuit = with_singles(
                circuit, get_record(name).single_qubit_gates, rng, name
            )
        circuits.append(circuit)
    return circuits


def warm_grid8(seed: int, size: Size = FULL) -> List[Tuple[int, QuantumCircuit]]:
    """``(skeleton index, circuit)`` in submission order: every skeleton
    once cold, then each variant round over all skeletons."""
    skeletons = [
        random_cnot_circuit(3, size.grid8_cnots, seed=skeleton_seed)
        for skeleton_seed in size.grid8_skeletons
    ]
    rounds = 1 + size.grid8_variants
    versions = [
        _distinct(
            lambda v, salt: with_singles(
                skeleton, size.grid8_singles,
                random.Random(f"warm-grid8/{seed}/{k}/{v}/{salt}"),
                f"grid8_k{k}_v{v}",
            ),
            rounds,
        )
        for k, skeleton in enumerate(skeletons)
    ]
    return [(k, versions[k][v]) for v in range(rounds) for k in range(len(skeletons))]


@dataclass(frozen=True)
class Request:
    """One request of the serve-http client: which circuit and why."""

    kind: str  # "fresh" or "hit"
    circuit_index: int  # index into ServeInputs.circuits


@dataclass(frozen=True)
class ServeInputs:
    circuits: List[QuantumCircuit]  # fresh circuits, then pre-put circuits
    fresh: int  # circuits[:fresh] are solved by the fleet
    script: List[Request]  # the closed-loop client's requests, in order


def serve_http(seed: int, size: Size = FULL) -> ServeInputs:
    """Fresh 4-qubit qx4 circuits, each followed by three exact repeats
    (one round of the client).

    A repeat only names a circuit the client has already received an answer
    for, or one the benchmark put into the store before boot -- so every
    repeat is a store hit, never a coalesced job.
    """

    def circuit(base: int):
        def make(index: int, salt: int) -> QuantumCircuit:
            skeleton = random_cnot_circuit(4, size.serve_cnots, seed=base + index)
            rng = random.Random(f"serve-http/{seed}/{base}/{index}/{salt}")
            return with_singles(skeleton, size.serve_singles, rng, f"serve_{base + index}")
        return make

    fresh = _distinct(circuit(SERVE_SKELETON_BASE), size.serve_fresh)
    preput = _distinct(circuit(SERVE_PREPUT_BASE), size.serve_preput)
    rng = random.Random(f"serve-http/{seed}/schedule")
    answered = list(range(size.serve_fresh, size.serve_fresh + size.serve_preput))
    script = []
    for index in range(size.serve_fresh):
        script.append(Request("fresh", index))
        answered.append(index)
        script.extend(
            Request("hit", rng.choice(answered))
            for _ in range(size.serve_repeats_per_fresh)
        )
    return ServeInputs(circuits=fresh + preput, fresh=size.serve_fresh, script=script)


def digest(seed: int, size: Size = FULL) -> Dict[str, List[str]]:
    """Fingerprints of every generated input (the self-test compares them)."""
    serve = serve_http(seed, size)
    return {
        "exact-qx4": [c.fingerprint() for c in exact_qx4(seed, size)],
        "warm-grid8": [c.fingerprint() for _, c in warm_grid8(seed, size)],
        "serve-http": [c.fingerprint() for c in serve.circuits]
        + [f"{r.kind}:{r.circuit_index}" for r in serve.script],
    }
