"""Batch mapping over worker pools, with structured per-item results.

:class:`MappingPipeline` is the service-shaped front end of the package: it
resolves its engine through the :mod:`repro.pipeline.registry`, maps single
circuits or whole batches, and parallelises at the **circuit level**:
:meth:`MappingPipeline.map_many` fans independent circuits out over a
:mod:`concurrent.futures` thread or process pool and returns one
:class:`BatchItem` per input (result *or* structured failure — one bad
circuit never poisons the batch).  A single circuit is always mapped by the
engine's own ``map``; for the SAT subset sweep that is the sequential
:meth:`repro.exact.sat_mapper.SATMapper.map`, whose incumbent-driven family
pruning and clause sharing both depend on solving families in plan order.

One function, :func:`map_circuit`, maps one circuit: it builds the engine
from the registry, binds a cancellation token and applies the seeds.
:meth:`MappingPipeline.map` calls it directly; :meth:`~MappingPipeline.map_many`
and :class:`~repro.service.service.MappingService` run it as a pool task
that returns a structured outcome instead of raising.

The one engine that takes seeds is
:class:`~repro.exact.sat_mapper.SATMapper`.  Its ``map`` accepts a caller
bound where ``mapper.accepts_seeds_for(num_logical)`` says the bound is safe,
and always accepts the **solve-artifact** cache handle, so sweeps
warm-start from structurally identical past jobs.  Both come from an
optional :class:`~repro.pipeline.bounds.BoundProviderChain` — the seed
resolver — which runs in the calling thread before any solver starts.

The pure-Python SAT solver holds the GIL, so ``executor="process"`` is the
choice for real speed-ups; ``executor="thread"`` (the default) still
overlaps I/O and keeps the API identical without any pickling requirements.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.result import MappingResult
from repro.pipeline.bounds import BoundProviderChain, SeedResolution
from repro.pipeline.registry import get_mapper, resolve_mapper_name

#: Pool type of each ``executor`` name.
EXECUTORS = {"thread": ThreadPoolExecutor, "process": ProcessPoolExecutor}


def executor_type(name: str):
    """The pool class of the ``executor`` *name*.

    Raises:
        ValueError: For a name other than ``"thread"`` and ``"process"``.
    """
    try:
        return EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; use 'thread' or 'process'"
        ) from None


@dataclass
class BatchItem:
    """Outcome of mapping one circuit of a batch.

    Exactly one of :attr:`result` and :attr:`error` is set.

    Attributes:
        index: Position of the circuit in the input batch.
        name: The circuit's name.
        result: The mapping result on success.
        error: Human-readable failure message on failure.
        error_type: Exception class name on failure.
        elapsed_seconds: Wall-clock time spent on this item.
    """

    index: int
    name: str
    result: Optional[MappingResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the circuit was mapped successfully."""
        return self.result is not None


def map_circuit(
    engine: str,
    coupling: CouplingMap,
    options: Dict[str, Any],
    circuit: QuantumCircuit,
    seed: SeedResolution,
    control=None,
) -> MappingResult:
    """Map one circuit with a freshly built engine.

    The engine comes from the registry.  *control* (a
    :class:`~repro.sat.control.SolveControl`) is bound to engines with
    ``bind_control``; engines without it run to completion, and their
    caller enforces a deadline by abandoning the result.  Only an engine
    with ``accepts_seeds_for`` takes *seed*: the artifact handle always,
    and the caller's bound where ``accepts_seeds_for(circuit.num_qubits)``
    holds — a subset sweep takes it only when the circuit uses every
    physical qubit, because a proper sweep's restricted minimum may lie
    above it.  A bound taken is recorded as the ``external_bound``
    statistic.
    """
    mapper = get_mapper(engine, coupling, **options)
    if control is not None and hasattr(mapper, "bind_control"):
        mapper.bind_control(control)
    accepts_seeds_for = getattr(mapper, "accepts_seeds_for", None)
    if accepts_seeds_for is None:
        return mapper.map(circuit)
    bound = seed.bound if accepts_seeds_for(circuit.num_qubits) else None
    result = mapper.map(circuit, upper_bound=bound, artifacts=seed.artifacts)
    if bound is not None:
        result.statistics.setdefault("external_bound", bound)
    return result


def _map_circuit_task(
    engine: str,
    coupling: CouplingMap,
    options: Dict[str, Any],
    circuit: QuantumCircuit,
    seed: SeedResolution,
    control=None,
) -> Tuple[str, Any, Optional[str], float]:
    """Pool task: :func:`map_circuit` as ``(status, payload, error_type,
    elapsed)``.

    *seed* is resolved by the caller (the resolver holds the store, with
    its locks, so it never crosses into workers) and holds only plain
    values plus a picklable :class:`~repro.service.store.ArtifactCache`
    handle, which carries only the database path and reopens lazily on
    the far side.  *control* cannot cross a process boundary.

    Returns a plain tuple instead of raising, so process workers never
    have to pickle tracebacks.
    """
    start = time.monotonic()
    try:
        if control is not None and control.cancelled:
            return (
                "error", "job cancelled before mapping started",
                "JobCancelled", time.monotonic() - start,
            )
        result = map_circuit(engine, coupling, options, circuit, seed, control)
        return ("ok", result, None, time.monotonic() - start)
    except Exception as error:  # noqa: BLE001 - converted to a structured failure
        return ("error", str(error), type(error).__name__, time.monotonic() - start)


class MappingPipeline:
    """Registry-backed mapping front end with batch parallelism.

    Args:
        coupling: Target architecture shared by all mapped circuits.
        engine: Registry name of the mapping engine (``"sat"``, ``"dp"``,
            ``"stochastic"``, ``"sabre"``, ``"sat_split"``, or any name
            added via :func:`repro.pipeline.registry.register_mapper`).
        engine_options: Keyword options forwarded to the engine factory.
        workers: Default worker count for :meth:`map_many`; ``1`` means
            fully sequential.
        executor: ``"thread"`` (default) or ``"process"``.  With
            ``"process"``, worker processes re-resolve the engine from their
            own copy of the registry: custom engines added at runtime via
            :func:`~repro.pipeline.registry.register_mapper` are only visible
            to workers on platforms whose start method is ``fork`` (Linux) or
            when the registration runs at import time of a module the workers
            also import; on spawn-start platforms (Windows, macOS default) a
            runtime-registered name fails in the workers with ``KeyError``.
        seeds: Optional seed resolver
            (:class:`~repro.pipeline.bounds.BoundProviderChain`) that
            warm-starts every mapped circuit.

    Example:
        >>> from repro.arch import ibm_qx4
        >>> pipeline = MappingPipeline(ibm_qx4(), engine="dp")
        >>> items = pipeline.map_many([circuit_a, circuit_b], workers=2)
        >>> [item.result.added_cost for item in items if item.ok]
        [0, 4]
    """

    def __init__(
        self,
        coupling: CouplingMap,
        engine: str = "sat",
        engine_options: Optional[Dict[str, Any]] = None,
        workers: int = 1,
        executor: str = "thread",
        seeds: Optional[BoundProviderChain] = None,
    ):
        self._pool_type = executor_type(executor)
        self.coupling = coupling
        self.engine = resolve_mapper_name(engine)
        self.engine_options = dict(engine_options or {})
        self.workers = max(1, int(workers))
        self.executor = executor
        self.seeds = seeds

    def _resolution(self) -> SeedResolution:
        return SeedResolution() if self.seeds is None else self.seeds.resolve()

    # ------------------------------------------------------------------
    def map(
        self, circuit: QuantumCircuit, control: Optional[Any] = None
    ) -> MappingResult:
        """Map one circuit in the calling thread through :func:`map_circuit`.

        The engine is seeded with whatever the seed resolver finds and it
        allows.  *control* is an optional cooperative-cancellation token
        for engines with ``bind_control``, honoured under either executor.
        The engine's exceptions propagate.
        """
        return map_circuit(
            self.engine, self.coupling, self.engine_options, circuit,
            self._resolution(), control,
        )

    def map_many(
        self,
        circuits: Iterable[QuantumCircuit],
        workers: Optional[int] = None,
        controls: Optional[Sequence[Any]] = None,
    ) -> List[BatchItem]:
        """Map a batch of circuits, one :class:`BatchItem` per input.

        Items are returned in input order.  A circuit that fails to map
        (for example because it has more logical qubits than the device)
        yields an item with :attr:`BatchItem.error` set; the other circuits
        are unaffected.

        Args:
            circuits: The circuits to map.
            workers: Worker count for this call (defaults to the pipeline's
                ``workers``); ``1`` maps sequentially in the calling thread.
            controls: Optional per-circuit
                :class:`~repro.sat.control.SolveControl` tokens (aligned
                with *circuits*) for cooperative cancellation and deadline
                interrupts.  Honoured under the thread executor only — the
                tokens cannot cross a process boundary, so with
                ``executor="process"`` cancellation degrades to the caller
                abandoning the result.
        """
        batch = list(circuits)
        batch_controls: List[Any] = []
        if self.executor == "thread":
            batch_controls.extend(controls or [])
        batch_controls.extend([None] * (len(batch) - len(batch_controls)))
        pool_size = self.workers if workers is None else max(1, int(workers))
        pool_size = min(pool_size, len(batch))
        # Seeds are resolved here: the resolver holds the store and its
        # locks, which must not cross into process workers.
        seed = self._resolution()
        tasks = [
            (self.engine, self.coupling, self.engine_options, circuit, seed, control)
            for circuit, control in zip(batch, batch_controls)
        ]
        if pool_size <= 1:
            outcomes = [_map_circuit_task(*task) for task in tasks]
        else:
            with self._pool_type(max_workers=pool_size) as pool:
                outcomes = list(pool.map(_map_circuit_task, *zip(*tasks)))
        items = []
        for index, (circuit, (status, payload, error_type, elapsed)) in enumerate(
            zip(batch, outcomes)
        ):
            item = BatchItem(index=index, name=circuit.name, elapsed_seconds=elapsed)
            if status == "ok":
                item.result = payload
            else:
                item.error, item.error_type = payload, error_type
            items.append(item)
        return items


__all__ = ["BatchItem", "MappingPipeline", "map_circuit"]
