"""Seed resolution for exact searches.

The SAT optimiser descends much faster from a known valid objective bound
(see ``OptimizingSolver.minimize(upper_bound=...)``), and faster still from
a known incumbent schedule.  One resolver, :class:`BoundProviderChain`,
gathers everything a job can be warm-started from:

* **store bounds** — the cheapest stored result for the same circuit,
  solved by any engine, on the target architecture **or on a registered
  sub-architecture** (a mapping that complies with a subset of the device's
  edges also complies with the device, so its cost is a valid bound);
* **model replay** — that result's *schedule*, replayed as the solver's
  initial incumbent, so the solver only has to prove (or beat) it;
* **a caller bound** (CLI flag, API);
* **solve artifacts** — a handle to the store's artifact table (learned
  clauses, proven family bounds, best schedules, keyed by encoding skeleton
  rather than circuit fingerprint), so even a never-seen circuit
  warm-starts from structurally identical past jobs.

Every bound here is the cost of some *valid mapping on the full device*,
hence an upper bound on the true minimum — safe to assert exactly where
``mapper.accepts_external_bound`` is true (see
:meth:`repro.exact.sat_mapper.SATMapper.accepts_external_bound`).  A cached
schedule is only replayed after re-validation against the *current*
coupling map; one that does not transfer (a sub-architecture hit, a
corrupted row) degrades to bound-only seeding with a provenance note.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit


def is_sub_architecture(candidate: CouplingMap, device: CouplingMap) -> bool:
    """True when *candidate* is a sub-architecture of *device*.

    Sub-architecture means: no more qubits, and every directed coupling of
    *candidate* is also a coupling of *device* (under identity labelling).
    A mapping solved on the candidate then runs unchanged on the device,
    so its cost is a valid device-level upper bound.
    """
    return (
        candidate.num_qubits <= device.num_qubits
        and candidate.edges <= device.edges
    )


@dataclass(frozen=True)
class ModelSeed:
    """A cached schedule replayable as an initial incumbent model.

    Attributes:
        mappings: One device-indexed logical-to-physical mapping per CNOT.
        objective: The schedule's added cost on the device it was validated
            against (a valid upper bound for the current solve).
        source_arch: ``"same"`` when the schedule was solved on the target
            architecture itself, ``"sub-architecture"`` otherwise.
    """

    mappings: Tuple[Tuple[int, ...], ...]
    objective: int
    source_arch: str = "same"


@dataclass
class SeedResolution:
    """Everything the resolver knows about warm-starting one solve.

    Picklable, so it travels into process workers.

    Attributes:
        bound: The tightest valid upper bound (``None`` when unknown).
        provider: Where :attr:`bound` came from: ``"model"`` or
            ``"store"`` (a stored result, with model replay on or off) or
            ``"static"`` (the caller bound).
        model: A replayable incumbent schedule no worse than :attr:`bound`
            (a model seed worse than the bound is dropped — the bound alone
            is stronger).
        artifacts: A :class:`~repro.service.store.ArtifactCache` handle for
            skeleton-keyed clause/bound/model seeding inside the sweep.
        notes: Provenance notes, e.g. why a cached schedule was rejected.
    """

    bound: Optional[int] = None
    provider: Optional[str] = None
    model: Optional[ModelSeed] = None
    artifacts: Optional[object] = None
    notes: List[str] = field(default_factory=list)


class BoundProviderChain:
    """The one seed resolver: store bounds, model replay, caller bound, artifacts.

    Args:
        store: The :class:`~repro.service.store.ResultStore` to read;
            ``None`` seeds from *upper_bound* alone.
        couplings: Registered coupling maps (e.g. every device a service
            fronts); those that are sub-architectures of a job's target are
            consulted besides the target itself.
        upper_bound: Optional caller-supplied bound (non-negative).
        seed_bounds: Whether stored results seed the bound (and the model).
        seed_models: Whether the cheapest stored schedule may be replayed
            as the solver's initial incumbent.
        seed_artifacts: Whether sweeps get a handle to the artifact table.

    Example:
        >>> seeds = BoundProviderChain(store, couplings=devices)
        >>> resolution = seeds.resolve_seed(circuit, coupling)
    """

    def __init__(
        self,
        store=None,
        couplings: Iterable[CouplingMap] = (),
        upper_bound: Optional[int] = None,
        seed_bounds: bool = True,
        seed_models: bool = True,
        seed_artifacts: bool = True,
    ):
        if upper_bound is not None and upper_bound < 0:
            raise ValueError("upper bound must be non-negative")
        self.store = store
        self.couplings: List[CouplingMap] = list(couplings)
        self.upper_bound = None if upper_bound is None else int(upper_bound)
        self.seed_bounds = seed_bounds
        self.seed_models = seed_models
        self.seed_artifacts = seed_artifacts

    def _consulted(self, coupling: CouplingMap) -> List[Tuple[str, str]]:
        """``(arch fingerprint, kind)`` of the target and its sub-architectures."""
        from repro.service.fingerprint import coupling_fingerprint

        consulted = {coupling_fingerprint(coupling): "same"}
        for candidate in self.couplings:
            if is_sub_architecture(candidate, coupling):
                consulted.setdefault(
                    coupling_fingerprint(candidate), "sub-architecture"
                )
        return list(consulted.items())

    def resolve_seed(
        self, circuit: QuantumCircuit, coupling: CouplingMap, replay_model: bool = True
    ) -> SeedResolution:
        """The tightest bound plus, when *replay_model*, a model seed.

        Makes one store read per consulted architecture: ``best_result``
        when a model may be replayed (its cost is the bound and its schedule
        the candidate model), ``best_added_cost`` otherwise.  The cheapest
        schedule that validates against *coupling* wins (ties go to the
        target architecture); each one that does not leaves a note.  The
        caller bound replaces the store bound only when strictly tighter.
        """
        from repro.exact.result import schedule_is_valid

        resolution = SeedResolution()
        model: Optional[ModelSeed] = None
        if self.store is not None and self.seed_bounds:
            replay = replay_model and self.seed_models
            circuit_fp = circuit.fingerprint()
            for arch_fp, kind in self._consulted(coupling):
                if not replay:
                    cost = self.store.best_added_cost(circuit_fp, arch_fp)
                else:
                    result = self.store.best_result(circuit_fp, arch_fp)
                    cost = None if result is None else result.added_cost
                if cost is None:
                    continue
                if resolution.bound is None or cost < resolution.bound:
                    resolution.bound = cost
                if not replay or (model is not None and model.objective <= cost):
                    continue
                mappings = tuple(tuple(m) for m in result.schedule.mappings)
                if not mappings:
                    continue
                if schedule_is_valid(circuit, mappings, coupling):
                    model = ModelSeed(mappings, cost, source_arch=kind)
                    continue
                resolution.notes.append(
                    f"cached schedule ({kind} hit, engine {result.engine}, cost "
                    f"{cost}) does not comply with the current coupling map; "
                    f"falling back to bound-only seeding"
                )
            if resolution.bound is not None:
                resolution.provider = "model" if self.seed_models else "store"
        if self.upper_bound is not None and (
            resolution.bound is None or self.upper_bound < resolution.bound
        ):
            resolution.bound, resolution.provider = self.upper_bound, "static"
        if model is not None and model.objective > resolution.bound:
            resolution.notes.append(
                f"model seed (cost {model.objective}) is worse than the "
                f"resolved bound {resolution.bound} from "
                f"{resolution.provider}; using the bound alone"
            )
        else:
            resolution.model = model
        return resolution

    def resolve_artifacts(self):
        """A picklable handle to the store's artifact table, or ``None``.

        Artifact rows key on the encoding skeleton of each subset family,
        computed inside the sweep, so the handle is offered without a
        lookup; hits and misses are counted by the consumer.
        """
        from repro.service.store import ArtifactCache

        if self.store is None or not self.seed_artifacts:
            return None
        return ArtifactCache(self.store)


__all__ = [
    "BoundProviderChain",
    "ModelSeed",
    "SeedResolution",
    "is_sub_architecture",
]
